package core

import (
	"fmt"
	"strings"
	"time"

	"cloudbench/internal/consistency"
	"cloudbench/internal/geo"
	"cloudbench/internal/kv"
	"cloudbench/internal/sim"
	"cloudbench/internal/stats"
	"cloudbench/internal/ycsb"
)

// The geo-replication experiment (§6: "we need to build a geo-distributed
// testbed to conduct such tests").
//
// Where the paper's figures run on one rack, this grid runs Cassandra
// across 2- and 3-datacenter topologies (cluster.GeoTopology) with
// NetworkTopologyStrategy placement (cassandra.Config.DCReplicas) and
// clients attached in every DC, and sweeps the three write levels whose
// WAN behavior differs structurally — ONE (any single ack), LOCAL_QUORUM
// (majority in the coordinator's DC, WAN traffic fully asynchronous), and
// EACH_QUORUM (majority in every DC, so the slowest WAN round trip is on
// the write path) — against WAN RTTs from regional (20 ms) to
// intercontinental (200 ms). Reads stay at LOCAL_QUORUM throughout: the
// grid isolates what the *write* level costs and leaks.
//
// Three extra cell families complete the trade-off picture:
//   - an RF-per-DC sweep at the 2-DC anchor point, varying the
//     NetworkTopologyStrategy allocation ({1,1} → {3,3}) at fixed level;
//   - two DC-partition fault cells (EACH_QUORUM and LOCAL_QUORUM) where
//     the WAN link is cut a quarter into the run and healed at the
//     midpoint, measuring availability under partition;
//   - two SLA cells comparing a fixed EACH_QUORUM client against the
//     adaptive client (package geo) defending a 40 ms write deadline over
//     an 80 ms WAN — tail latency on one side, oracle-measured staleness
//     on the other.
//
// Every cell attaches the consistency oracle with the audit's
// MutationStage jitter, so the staleness each level leaks is a measured
// column, not a story. GC pauses stay off in this experiment: the effects
// under test are multi-millisecond WAN waits and the 40 ms SLA verdict,
// and 25 ms JVM pause tails (measured by the single-rack figures) would
// smear both without adding geo-specific information.

const (
	// geoServersPerDC keeps each DC small enough that the 3-DC × 200 ms
	// cells stay cheap while every DC can still hold a 3-replica quorum.
	geoServersPerDC = 3
	// geoWANJitter spreads per-message WAN latency uniformly over
	// [base, base+jitter): enough variance to exercise the seeded
	// per-link streams without blurring the level separation.
	geoWANJitter = 2 * time.Millisecond
	// geoAnchorRTT is the RTT of the RF-sweep, fault, and SLA cells.
	geoAnchorRTT = 80 * time.Millisecond
	// geoSLADeadline is the write-latency SLA the adaptive client
	// defends: half the anchor RTT, affordable at LOCAL_QUORUM but not
	// at EACH_QUORUM.
	geoSLADeadline = 40 * time.Millisecond
)

// geoRTTs is the WAN round-trip sweep: same-region, cross-region, and
// intercontinental.
func geoRTTs() []time.Duration {
	return []time.Duration{20 * time.Millisecond, 80 * time.Millisecond, 200 * time.Millisecond}
}

// geoLevels returns the swept write levels. Reads run at LOCAL_QUORUM in
// every cell so the columns isolate the write level's cost.
func geoLevels() []ConsistencySetting {
	return []ConsistencySetting{
		{Name: "ONE", Read: kv.LocalQuorum, Write: kv.One},
		{Name: "LOCAL_QUORUM", Read: kv.LocalQuorum, Write: kv.LocalQuorum},
		{Name: "EACH_QUORUM", Read: kv.LocalQuorum, Write: kv.EachQuorum},
	}
}

// geoThreads scales the client shape down from the single-rack stress
// figures: the geo cells measure per-operation WAN waits, not saturation,
// and fewer closed-loop threads keep queueing out of the latency columns.
func geoThreads(o Options) int {
	t := o.Threads / 4
	if t > 64 {
		t = 64
	}
	if t < 1 {
		t = 1
	}
	return t
}

// geoOps is the per-cell operation count.
func geoOps(o Options) int64 { return o.StressOps / 2 }

// geoUniformRF is the default NetworkTopologyStrategy allocation: rf
// replicas in each of dcs data centers.
func geoUniformRF(dcs, rf int) []int {
	out := make([]int, dcs)
	for i := range out {
		out[i] = rf
	}
	return out
}

// rfLabel renders an RF-per-DC allocation as "2+2".
func rfLabel(perDC []int) string {
	parts := make([]string, len(perDC))
	for i, rf := range perDC {
		parts[i] = fmt.Sprintf("%d", rf)
	}
	return strings.Join(parts, "+")
}

// Geo cell modes.
const (
	geoModeGrid     = "grid"
	geoModeFault    = "fault"
	geoModeFixed    = "sla-fixed"
	geoModeAdaptive = "sla-adaptive"
)

// geoCell is one grid point of the geo sweep: a multi-DC Cassandra
// backend and what the cell does to it.
type geoCell struct {
	backend
	mode string
}

func (c geoCell) String() string { return c.backend.String() + "/" + c.mode }

func geoAt(dcs int, rtt time.Duration, lv ConsistencySetting, perDC []int) backend {
	return backend{db: "Cassandra", lv: lv, dcs: dcs, rtt: rtt, perDC: perDC}
}

// geoCells enumerates the canonical sweep order: the 2- and 3-DC RTT ×
// level grids, the RF-per-DC sweep at the anchor point, the two
// DC-partition fault cells, and the two SLA cells last.
func geoCells(o Options) []geoCell {
	var cells []geoCell
	for _, dcs := range []int{2, 3} {
		for _, rtt := range geoRTTs() {
			for _, lv := range geoLevels() {
				cells = append(cells, geoCell{geoAt(dcs, rtt, lv, geoUniformRF(dcs, 2)), geoModeGrid})
			}
		}
	}
	for _, perDC := range [][]int{{1, 1}, {3, 1}, {3, 3}} {
		cells = append(cells, geoCell{geoAt(2, geoAnchorRTT, geoLevels()[1], perDC), geoModeGrid})
	}
	for _, lv := range []ConsistencySetting{geoLevels()[2], geoLevels()[1]} {
		cells = append(cells, geoCell{geoAt(2, geoAnchorRTT, lv, geoUniformRF(2, 2)), geoModeFault})
	}
	adaptive := geoAt(2, geoAnchorRTT, ConsistencySetting{Name: "adaptive", Read: kv.LocalQuorum}, geoUniformRF(2, 2))
	adaptive.adaptive = true
	return append(cells,
		geoCell{geoAt(2, geoAnchorRTT, geoLevels()[2], geoUniformRF(2, 2)), geoModeFixed},
		geoCell{adaptive, geoModeAdaptive},
	)
}

// GeoResult is one cell of the geo experiment.
type GeoResult struct {
	DCs   int
	RTT   time.Duration
	Level string // write consistency level (or "adaptive")
	PerDC string // NetworkTopologyStrategy allocation, e.g. "2+2"
	Mode  string // grid, fault, sla-fixed, or sla-adaptive

	Throughput float64
	ReadMean   time.Duration
	ReadP99    time.Duration
	WriteMean  time.Duration
	WriteP99   time.Duration
	Errors     int64

	// Consistency is the oracle's report: what the level leaked.
	Consistency consistency.Report

	// Adaptive carries the controller's counters for the sla-adaptive
	// cell (nil elsewhere); AdaptiveStage is its final rung name.
	Adaptive      *geo.Metrics
	AdaptiveStage string
}

// GeoResults collects the full geo grid.
type GeoResults []GeoResult

// RunGeo runs the geo-replication grid. Like every experiment, each cell
// is a self-contained deterministic simulation fanned out across the
// sweep scheduler, and the report is bit-identical for any Parallelism.
// A geo cell deploys all its DCs on one kernel, so the WAN is modelled as
// link latency inside it.
func RunGeo(o Options) (GeoResults, error) {
	return sweep(o, "geo", geoCells(o), runGeoCell)
}

// runGeoCell deploys one cell, loads, runs the read-update mixer
// (optionally cutting and healing the DC 0–1 WAN link mid-run), lets
// propagation settle, and snapshots the oracle and controller.
func runGeoCell(o Options, c geoCell) (GeoResults, error) {
	// GC stays off (see the header), and staleness is a reported column in
	// every geo cell, so the replica MutationStage jitter is on, as in the
	// consistency audit.
	o.EnableGC = false
	o.MutationStageDelay = auditMutationStage
	spec := ycsb.ReadUpdate(o.StressRecords)
	d := deploy(o, c.backend, spec)
	oracle := consistency.New()
	d.attach(oracle, nil)
	out := GeoResult{
		DCs: c.dcs, RTT: c.rtt, Level: c.lv.Name, PerDC: rfLabel(c.perDC), Mode: c.mode,
	}
	ops := geoOps(o)
	err := d.run(geoThreads(o), func(p *sim.Proc) {
		rcfg := ycsb.RunConfig{
			Threads:        geoThreads(o),
			Ops:            ops,
			WarmupFraction: warmupFraction,
		}
		if c.mode == geoModeFault {
			// Cut the DC 0–1 WAN link a quarter into the run and heal it
			// at the midpoint — by operation progress, so the outage
			// lands inside the measured window at every profile scale.
			rcfg.Events = []ycsb.RunEvent{
				{AfterOps: ops / 4, Fn: func() { d.clus.PartitionZones(0, 1) }},
				{AfterOps: ops / 2, Fn: func() { d.clus.HealZones(0, 1) }},
			}
		}
		res := d.phase(p, spec, rcfg)
		out.Throughput = res.Throughput
		out.ReadMean = res.PerOp[ycsb.OpRead].Mean()
		out.ReadP99 = res.PerOp[ycsb.OpRead].Percentile(99)
		out.WriteMean = res.PerOp[ycsb.OpUpdate].Mean()
		out.WriteP99 = res.PerOp[ycsb.OpUpdate].Percentile(99)
		out.Errors = res.Errors
		settle := quiesce
		if c.mode == geoModeFault {
			settle = auditFaultSettle
		}
		p.Sleep(settle)
	})
	// Snapshot after the settle sleep so WAN propagation that completed
	// post-run (async forwards, read repair) is reflected in the lag and
	// visibility columns.
	if oracle != nil {
		out.Consistency = oracle.Report()
	}
	if d.ctrl != nil {
		m := d.ctrl.Metrics()
		out.Adaptive = &m
		out.AdaptiveStage = d.ctrl.StageName()
	}
	return GeoResults{out}, err
}

// find returns the first cell matching (mode, dcs, rtt, level, perDC), or
// nil.
func (r GeoResults) find(mode string, dcs int, rtt time.Duration, level, perDC string) *GeoResult {
	for i := range r {
		m := &r[i]
		if m.Mode == mode && m.DCs == dcs && m.RTT == rtt && m.Level == level && m.PerDC == perDC {
			return m
		}
	}
	return nil
}

// Tables renders the geo grid as one row per cell: the latency profile,
// availability, the oracle's staleness verdict, and the adaptive
// controller's counters where they apply.
func (r GeoResults) Tables() []*stats.Table {
	t := stats.NewTable("Geo-replication — multi-DC latency, availability, and staleness by write consistency level",
		"dcs", "rtt", "write-cl", "rf-per-dc", "mode",
		"ops/sec", "read-mean", "read-p99", "write-mean", "write-p99",
		"errors", "reads", "stale-%",
		"final-stage", "stage-ops", "step-downs", "sla-misses")
	for _, m := range r {
		stage, stageOps, downs, misses := "-", "-", "-", "-"
		if m.Adaptive != nil {
			stage = m.AdaptiveStage
			parts := make([]string, len(m.Adaptive.OpsPerStage))
			for i, n := range m.Adaptive.OpsPerStage {
				parts[i] = fmt.Sprintf("%d", n)
			}
			stageOps = strings.Join(parts, "/")
			downs = fmt.Sprintf("%d", m.Adaptive.StepDowns)
			misses = fmt.Sprintf("%d", m.Adaptive.Misses)
		}
		t.AddRow(m.DCs, m.RTT.String(), m.Level, m.PerDC, m.Mode,
			m.Throughput,
			m.ReadMean.Round(time.Microsecond).String(),
			m.ReadP99.Round(time.Microsecond).String(),
			m.WriteMean.Round(time.Microsecond).String(),
			m.WriteP99.Round(time.Microsecond).String(),
			m.Errors, m.Consistency.Reads,
			fmt.Sprintf("%.3f", 100*m.Consistency.StaleFraction()),
			stage, stageOps, downs, misses)
	}
	return []*stats.Table{t}
}

// Findings evaluates the geo experiment's qualitative claims.
func (r GeoResults) Findings(o Options) []Finding {
	var fs []Finding
	rtts := geoRTTs()
	anchor := rfLabel(geoUniformRF(2, 2))

	// FG1: EACH_QUORUM write latency grows with the WAN RTT (the slowest
	// round trip is on the write path) while LOCAL_QUORUM stays flat (all
	// WAN traffic is asynchronous).
	var eqMeans, lqMeans []time.Duration
	for _, rtt := range rtts {
		if m := r.find(geoModeGrid, 2, rtt, "EACH_QUORUM", anchor); m != nil {
			eqMeans = append(eqMeans, m.WriteMean)
		}
		if m := r.find(geoModeGrid, 2, rtt, "LOCAL_QUORUM", anchor); m != nil {
			lqMeans = append(lqMeans, m.WriteMean)
		}
	}
	eqGrowth := 0.0
	if len(eqMeans) >= 2 {
		eqGrowth = ratio(float64(eqMeans[len(eqMeans)-1]), float64(eqMeans[0]))
	}
	lqFlat := flatness(lqMeans)
	fs = append(fs, Finding{
		ID:    "FG1",
		Claim: "EACH_QUORUM write latency grows with WAN RTT; LOCAL_QUORUM stays flat",
		Pass:  len(eqMeans) == len(rtts) && len(lqMeans) == len(rtts) && eqGrowth > 2.0 && lqFlat < 1.5,
		Detail: fmt.Sprintf("EACH_QUORUM mean %v→%v (x%.1f, threshold 2.0); LOCAL_QUORUM max/min=%.2f (threshold 1.5)",
			first(eqMeans), last(eqMeans), eqGrowth, lqFlat),
	})

	// FG2: the staleness each write level leaks orders inversely to its
	// strength — EACH_QUORUM's per-DC majorities intersect every
	// LOCAL_QUORUM read set (zero stale), LOCAL_QUORUM leaks stale reads
	// in remote DCs until the async forward lands, and ONE adds a
	// coordinator-DC window on top.
	one := r.find(geoModeGrid, 2, geoAnchorRTT, "ONE", anchor)
	lq := r.find(geoModeGrid, 2, geoAnchorRTT, "LOCAL_QUORUM", anchor)
	eq := r.find(geoModeGrid, 2, geoAnchorRTT, "EACH_QUORUM", anchor)
	if one != nil && lq != nil && eq != nil {
		oneS, lqS, eqS := one.Consistency.StaleFraction(), lq.Consistency.StaleFraction(), eq.Consistency.StaleFraction()
		fs = append(fs, Finding{
			ID:    "FG2",
			Claim: "staleness rises as the write level steps down: EACH_QUORUM=0 < LOCAL_QUORUM ≤ ONE",
			Pass:  eqS == 0 && lqS > 0 && oneS >= lqS,
			Detail: fmt.Sprintf("stale%%: EACH_QUORUM=%.3f LOCAL_QUORUM=%.3f ONE=%.3f (2dc/80ms)",
				100*eqS, 100*lqS, 100*oneS),
		})
	}

	// FG3: the adaptive client keeps write p99 under the SLA deadline
	// where fixed EACH_QUORUM misses it — at a quantified staleness cost.
	fixed := r.find(geoModeFixed, 2, geoAnchorRTT, "EACH_QUORUM", anchor)
	adaptive := r.find(geoModeAdaptive, 2, geoAnchorRTT, "adaptive", anchor)
	if fixed != nil && adaptive != nil {
		pass := fixed.WriteP99 > geoSLADeadline && adaptive.WriteP99 <= geoSLADeadline &&
			adaptive.Adaptive != nil && adaptive.Adaptive.StepDowns >= 1 && adaptive.Adaptive.OpsPerStage[0] > 0
		detail := fmt.Sprintf("write-p99: fixed=%v adaptive=%v (deadline %v); stale%%: fixed=%.3f adaptive=%.3f",
			fixed.WriteP99.Round(time.Microsecond), adaptive.WriteP99.Round(time.Microsecond), geoSLADeadline,
			100*fixed.Consistency.StaleFraction(), 100*adaptive.Consistency.StaleFraction())
		if adaptive.Adaptive != nil {
			detail += fmt.Sprintf("; step-downs=%d final=%s", adaptive.Adaptive.StepDowns, adaptive.AdaptiveStage)
		}
		fs = append(fs, Finding{
			ID:     "FG3",
			Claim:  "adaptive client meets the 40ms write SLA that fixed EACH_QUORUM misses, trading staleness",
			Pass:   pass,
			Detail: detail,
		})
	}

	// FG4: under a DC partition, LOCAL_QUORUM stays available while
	// EACH_QUORUM fails writes until the link heals.
	eqF := r.find(geoModeFault, 2, geoAnchorRTT, "EACH_QUORUM", anchor)
	lqF := r.find(geoModeFault, 2, geoAnchorRTT, "LOCAL_QUORUM", anchor)
	if eqF != nil && lqF != nil {
		fs = append(fs, Finding{
			ID:    "FG4",
			Claim: "DC partition: LOCAL_QUORUM stays available, EACH_QUORUM writes fail until heal",
			Pass:  eqF.Errors > 0 && lqF.Errors == 0,
			Detail: fmt.Sprintf("errors during partitioned run: EACH_QUORUM=%d LOCAL_QUORUM=%d (of %d ops)",
				eqF.Errors, lqF.Errors, geoOps(o)),
		})
	}
	return fs
}

// first and last guard empty latency series in finding details.
func first(v []time.Duration) time.Duration {
	if len(v) == 0 {
		return 0
	}
	return v[0]
}

func last(v []time.Duration) time.Duration {
	if len(v) == 0 {
		return 0
	}
	return v[len(v)-1]
}
