// Package geo provides the SLA-adaptive consistency client for
// multi-datacenter deployments: a kv.Client wrapper that walks a
// strongest-first ladder of consistency levels, stepping down when the
// current level's observed latency can no longer meet a per-operation
// deadline and probing its way back up after a cooldown.
//
// The controller trades consistency for latency explicitly — the paper's
// central tunable — and its decisions are a pure function of the simulated
// clock, the per-stage latency histograms, and the deciding process's
// seeded RNG stream, so adaptive runs stay byte-identical across repeats,
// worker parallelism, and execution sharding.
package geo

import (
	"time"

	"cloudbench/internal/kv"
	"cloudbench/internal/sim"
	"cloudbench/internal/stats"
)

// Stage is one rung of the consistency ladder: the read and write levels
// operations issued at this rung use.
type Stage struct {
	Name  string
	Read  kv.ConsistencyLevel
	Write kv.ConsistencyLevel
}

// WriteLadder returns the canonical write ladder for geo deployments,
// strongest first: EACH_QUORUM → LOCAL_QUORUM → ONE, reading at the given
// level throughout.
func WriteLadder(read kv.ConsistencyLevel) []Stage {
	return []Stage{
		{Name: "EACH_QUORUM", Read: read, Write: kv.EachQuorum},
		{Name: "LOCAL_QUORUM", Read: read, Write: kv.LocalQuorum},
		{Name: "ONE", Read: read, Write: kv.One},
	}
}

// ControllerConfig parameterizes the adaptive controller.
type ControllerConfig struct {
	// Ladder lists the stages strongest first. Required, at least one.
	Ladder []Stage
	// Deadline is the per-operation latency SLA the controller defends.
	Deadline time.Duration
	// Percentile of the current stage's latency histogram compared
	// against Deadline when deciding a pre-issue step-down, on the 0–100
	// scale stats.Histogram uses (default 95).
	Percentile float64
	// MinSamples is how many completions a stage's histogram needs before
	// its estimate is trusted for step-down decisions (default 20).
	MinSamples int
	// Cooldown is how long after any stage shift the controller waits
	// before probing one rung up (default 10s).
	Cooldown time.Duration
	// ProbeChance is the per-operation probability, once the cooldown has
	// passed, that the op probes the next-stronger stage (default 0.05).
	ProbeChance float64
}

func (cfg ControllerConfig) withDefaults() ControllerConfig {
	if cfg.Percentile <= 0 {
		cfg.Percentile = 95
	}
	if cfg.MinSamples <= 0 {
		cfg.MinSamples = 20
	}
	if cfg.Cooldown <= 0 {
		cfg.Cooldown = 10 * time.Second
	}
	if cfg.ProbeChance <= 0 {
		cfg.ProbeChance = 0.05
	}
	return cfg
}

// Metrics is a snapshot of the controller's counters.
type Metrics struct {
	OpsPerStage []int64 // operations issued at each ladder rung
	StepDowns   int64   // shifts toward weaker consistency
	StepUps     int64   // successful probe shifts back up
	Probes      int64   // probe operations issued
	Misses      int64   // completions over Deadline (or errored)
	Stage       int     // current rung at snapshot time
}

// Controller holds the ladder state shared by every client of one
// deployment. It is not safe for host-level concurrency; all callers run
// on the same simulation kernel, which serializes them.
type Controller struct {
	cfg   ControllerConfig
	stage int // current ladder rung
	hist  []stats.Histogram
	// lastShift is when the controller last changed stage (or probed and
	// failed); the cooldown runs from here.
	lastShift sim.Time

	ops       []int64
	stepDowns int64
	stepUps   int64
	probes    int64
	misses    int64
}

// NewController builds a controller starting at the strongest rung.
func NewController(cfg ControllerConfig) *Controller {
	if len(cfg.Ladder) == 0 {
		panic("geo: ControllerConfig.Ladder is empty")
	}
	cfg = cfg.withDefaults()
	return &Controller{
		cfg:  cfg,
		hist: make([]stats.Histogram, len(cfg.Ladder)),
		ops:  make([]int64, len(cfg.Ladder)),
	}
}

// Stage returns the current ladder rung.
func (c *Controller) Stage() int { return c.stage }

// StageName returns the name of the current rung.
func (c *Controller) StageName() string { return c.cfg.Ladder[c.stage].Name }

// Metrics returns a snapshot of the controller's counters.
func (c *Controller) Metrics() Metrics {
	return Metrics{
		OpsPerStage: append([]int64(nil), c.ops...),
		StepDowns:   c.stepDowns,
		StepUps:     c.stepUps,
		Probes:      c.probes,
		Misses:      c.misses,
		Stage:       c.stage,
	}
}

// stageFor picks the rung for the next operation. It first applies any
// estimate-driven step-down: when the current rung's trusted latency
// estimate already exceeds the deadline budget at issue time, the stronger
// level cannot be afforded and the controller shifts down before paying
// for it. It then decides whether this op probes one rung stronger: after
// the cooldown a small fraction of ops pay the stronger level's price to
// re-measure it, drawing the dice from the calling process's seeded
// stream.
func (c *Controller) stageFor(p *sim.Proc) (stage int, probe bool) {
	for c.stage < len(c.cfg.Ladder)-1 {
		h := &c.hist[c.stage]
		if h.Count() < int64(c.cfg.MinSamples) || h.Percentile(c.cfg.Percentile) <= c.cfg.Deadline {
			break
		}
		c.shiftTo(p, c.stage+1)
		c.stepDowns++
	}
	if c.stage > 0 && p.Now().Sub(c.lastShift) >= c.cfg.Cooldown &&
		p.Rand().Float64() < c.cfg.ProbeChance {
		c.probes++
		return c.stage - 1, true
	}
	return c.stage, false
}

// observe feeds one completion back: latency accounting, deadline misses,
// immediate step-down when the current rung errors (unavailability needs
// no estimate), and probe resolution — a probe that met the deadline
// commits the step-up; one that did not restarts the cooldown. A single
// slow-but-successful completion never shifts the ladder by itself; only
// the histogram estimate in stageFor does, so one outlier cannot trade
// consistency away.
func (c *Controller) observe(p *sim.Proc, stage int, probe bool, d time.Duration, err error) {
	c.ops[stage]++
	if err == nil {
		c.hist[stage].Record(d)
	}
	missed := err != nil || d > c.cfg.Deadline
	if missed {
		c.misses++
	}
	if probe {
		if !missed {
			c.shiftTo(p, stage)
			c.stepUps++
		} else {
			c.lastShift = p.Now() // failed probe: restart the cooldown
		}
		return
	}
	if err != nil && stage == c.stage && c.stage < len(c.cfg.Ladder)-1 {
		c.shiftTo(p, c.stage+1)
		c.stepDowns++
	}
}

// shiftTo moves the ladder to rung s. Entering a stronger rung resets its
// histogram: the samples that drove the earlier step-down describe the old
// network conditions, and keeping them would re-trigger the step-down
// before MinSamples fresh completions could disagree.
func (c *Controller) shiftTo(p *sim.Proc, s int) {
	if s < c.stage {
		c.hist[s].Reset()
	}
	c.stage = s
	c.lastShift = p.Now()
}

// Client is a kv.Client issuing every operation at the controller's
// current rung. Build one per benchmark thread over a shared controller;
// the factory is called once per ladder stage to produce the stage-bound
// underlying client (e.g. cassandra.Client.WithConsistency).
type Client struct {
	ctrl   *Controller
	stages []kv.Client
}

// NewClient wraps the per-stage clients produced by factory.
func NewClient(ctrl *Controller, factory func(Stage) kv.Client) *Client {
	stages := make([]kv.Client, len(ctrl.cfg.Ladder))
	for i, s := range ctrl.cfg.Ladder {
		stages[i] = factory(s)
	}
	return &Client{ctrl: ctrl, stages: stages}
}

var _ kv.Client = (*Client)(nil)

// Read implements kv.Client at the adaptive consistency level. The record
// is the serving stage client's scratch, passed through: it holds until that
// stage next reads, so at least until this client's next Read.
func (c *Client) Read(p *sim.Proc, key kv.Key, fields []string) (kv.Record, error) {
	s, probe := c.ctrl.stageFor(p)
	start := p.Now()
	rec, err := c.stages[s].Read(p, key, fields)
	// A missing key is an answer, not an SLA event.
	lat := p.Now().Sub(start)
	if err == kv.ErrNotFound {
		c.ctrl.observe(p, s, probe, lat, nil)
	} else {
		c.ctrl.observe(p, s, probe, lat, err)
	}
	return rec, err
}

// Insert implements kv.Client.
func (c *Client) Insert(p *sim.Proc, key kv.Key, rec kv.Record) error {
	s, probe := c.ctrl.stageFor(p)
	start := p.Now()
	err := c.stages[s].Insert(p, key, rec)
	c.ctrl.observe(p, s, probe, p.Now().Sub(start), err)
	return err
}

// Update implements kv.Client.
func (c *Client) Update(p *sim.Proc, key kv.Key, rec kv.Record) error {
	s, probe := c.ctrl.stageFor(p)
	start := p.Now()
	err := c.stages[s].Update(p, key, rec)
	c.ctrl.observe(p, s, probe, p.Now().Sub(start), err)
	return err
}

// Delete implements kv.Client.
func (c *Client) Delete(p *sim.Proc, key kv.Key) error {
	s, probe := c.ctrl.stageFor(p)
	start := p.Now()
	err := c.stages[s].Delete(p, key)
	c.ctrl.observe(p, s, probe, p.Now().Sub(start), err)
	return err
}

// Scan implements kv.Client. Scans bypass the ladder (the scan path does
// not honor consistency levels) and are served by the strongest stage's
// client without feeding the controller. The slice is that stage client's
// scratch, passed through: valid until this client's next Scan.
func (c *Client) Scan(p *sim.Proc, start kv.Key, limit int, fields []string) ([]kv.KV, error) {
	return c.stages[0].Scan(p, start, limit, fields)
}
