package main

import (
	"bytes"
	"runtime/pprof"
	"time"

	"cloudbench/internal/kv"
	"cloudbench/internal/sim"
	"cloudbench/internal/stats"
	"cloudbench/internal/ycsb"
)

// maxSpans bounds the trace file: the harness spans always fit, client
// operation spans are kept until the budget is spent and counted after.
const maxSpans = 10_000

// span is one traced interval. Harness spans (workload, setup, deploy,
// load, settle, run, check, ladder rungs) are on the host clock, ns since
// the recorder was made; client operation spans are on the simulated
// clock, because the operations of 256 closed-loop clients interleave on
// one host thread and only their simulated extent means anything.
type span struct {
	Name     string `json:"name"`
	Parent   string `json:"parent"`
	Workload string `json:"workload"`
	Clock    string `json:"clock"` // "host" or "sim"
	StartNs  int64  `json:"start_ns"`
	EndNs    int64  `json:"end_ns"`
}

type verb int

const (
	verbRead verb = iota
	verbUpdate
	verbInsert
	verbScan
	verbDelete
	numVerbs
)

var verbNames = [numVerbs]string{"read", "update", "insert", "scan", "delete"}

type verbStats struct {
	count   int64
	latency stats.Histogram // simulated
	rows    int64           // scans only
}

// recorder is the traced run's in-memory trace: spans, per-verb client
// statistics and the CPU profile of run. A nil *recorder records nothing,
// so the untraced path carries no tracing work at all.
type recorder struct {
	workload string
	t0       time.Time
	spans    []span
	dropped  int64
	verbs    [numVerbs]verbStats
}

func newRecorder(workload string) *recorder {
	return &recorder{workload: workload, t0: time.Now()}
}

type openSpan struct {
	rec *recorder
	idx int
}

// begin opens a host-clock span; the returned handle's end closes it.
func (r *recorder) begin(name, parent string) openSpan {
	if r == nil {
		return openSpan{}
	}
	r.spans = append(r.spans, span{
		Name: name, Parent: parent, Workload: r.workload, Clock: "host",
		StartNs: time.Since(r.t0).Nanoseconds(),
	})
	return openSpan{rec: r, idx: len(r.spans) - 1}
}

func (s openSpan) end() {
	if s.rec != nil {
		s.rec.spans[s.idx].EndNs = time.Since(s.rec.t0).Nanoseconds()
	}
}

func (r *recorder) op(v verb, start, end sim.Time, rows int) {
	vs := &r.verbs[v]
	vs.count++
	vs.latency.Record(end.Sub(start))
	vs.rows += int64(rows)
	if len(r.spans) >= maxSpans {
		r.dropped++
		return
	}
	r.spans = append(r.spans, span{
		Name: "kv." + verbNames[v], Parent: "run", Workload: r.workload, Clock: "sim",
		StartNs: int64(start), EndNs: int64(end),
	})
}

// startProfile begins a CPU profile; the returned func stops it and yields
// the gzipped profile.proto. With a nil recorder both are no-ops.
func (r *recorder) startProfile() func() []byte {
	if r == nil {
		return func() []byte { return nil }
	}
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		// Only fails when a profile is already running, which is a
		// harness bug: the traced rep is the one profiled region.
		panic("bench: " + err.Error())
	}
	return func() []byte {
		pprof.StopCPUProfile()
		return buf.Bytes()
	}
}

// wrap decorates every client the factory builds with the recording
// pass-through below.
func (r *recorder) wrap(newClient ycsb.ClientFactory) ycsb.ClientFactory {
	return func() kv.Client { return &tracedClient{inner: newClient(), rec: r} }
}

// tracedClient is a pure pass-through kv.Client: it forwards every call
// unchanged, returns exactly what the inner client returned, and touches
// neither the process's RNG nor the simulated clock — so a traced run's
// sim_digest equals the untraced one.
type tracedClient struct {
	inner kv.Client
	rec   *recorder
}

func (c *tracedClient) Read(p *sim.Proc, key kv.Key, fields []string) (kv.Record, error) {
	start := p.Now()
	rec, err := c.inner.Read(p, key, fields)
	c.rec.op(verbRead, start, p.Now(), 0)
	return rec, err
}

func (c *tracedClient) Insert(p *sim.Proc, key kv.Key, rec kv.Record) error {
	start := p.Now()
	err := c.inner.Insert(p, key, rec)
	c.rec.op(verbInsert, start, p.Now(), 0)
	return err
}

func (c *tracedClient) Update(p *sim.Proc, key kv.Key, rec kv.Record) error {
	start := p.Now()
	err := c.inner.Update(p, key, rec)
	c.rec.op(verbUpdate, start, p.Now(), 0)
	return err
}

func (c *tracedClient) Delete(p *sim.Proc, key kv.Key) error {
	start := p.Now()
	err := c.inner.Delete(p, key)
	c.rec.op(verbDelete, start, p.Now(), 0)
	return err
}

func (c *tracedClient) Scan(p *sim.Proc, start kv.Key, limit int, fields []string) ([]kv.KV, error) {
	t0 := p.Now()
	rows, err := c.inner.Scan(p, start, limit, fields)
	c.rec.op(verbScan, t0, p.Now(), len(rows))
	return rows, err
}
