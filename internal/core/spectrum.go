package core

import (
	"fmt"
	"slices"
	"time"

	"cloudbench/internal/consistency"
	"cloudbench/internal/objstore"
	"cloudbench/internal/sim"
	"cloudbench/internal/stats"
	"cloudbench/internal/ycsb"
)

// The replication-spectrum experiment.
//
// The paper's grid stops at Cassandra CL=ONE: the weakest setting it
// measures still replicates synchronously in the request path — the
// coordinator fans the mutation to every replica and waits for one ack, so
// write cost grows with RF and the unacked replicas are already in flight
// when the client resumes. Asynchronous replication, the Swift/Dynamo end
// of the spectrum, acks after a single durable local apply and replicates
// strictly after the ack. This experiment extends the paper's CL axis with
// that third point: the same two staleness-sensitive workloads as the
// consistency audit, over HBase (strong control), Cassandra at
// ONE/QUORUM/writeALL, and the object store across its replication-factor
// and anti-entropy-interval sweeps, reporting throughput, latency tails,
// client-centric staleness, and t-visibility side by side.
//
// Expected shape, asserted by SpectrumResults.Findings:
//   - the async ack path decouples write latency from RF: the object
//     store's write tail is flat across the RF sweep while all-replica
//     visibility (TVisAll) keeps growing — replication work still scales
//     with RF, it just moves off the request path;
//   - the visibility cost is real: at the anchor cell the object store's
//     TVisAll tail exceeds Cassandra CL=ONE's, whose fan-out is already in
//     flight at ack time, and its read-one staleness exceeds CL=ONE's;
//   - under fault injection the anti-entropy interval is the convergence
//     knob: a faster replicator closes the post-recovery staleness window
//     that spilled async jobs left open;
//   - read-quorum-of-fresh buys back most read-side staleness without
//     touching the write path.

// spectrumFaultDowntime is how long the fault cells hold the victim
// server down: past the async job retry budget (~6× the default retry
// base), so replication to it spills to the updater and convergence is
// carried by the anti-entropy pass.
const spectrumFaultDowntime = time.Second

// SpectrumResult is one cell of the replication-spectrum grid.
type SpectrumResult struct {
	DB       string
	Workload string
	Level    string // consistency setting or objstore read policy
	RF       int
	// ReplInterval is the object store's anti-entropy period (zero for the
	// other backends).
	ReplInterval time.Duration
	Fault        bool

	Runtime  float64 // measured run-phase throughput, ops/s
	Mean     time.Duration
	ReadP99  time.Duration
	WriteP99 time.Duration

	Consistency consistency.Report
}

// SpectrumResults collects the full spectrum grid.
type SpectrumResults []SpectrumResult

// spectrumCell is one grid point of the spectrum — and of the consistency
// audit, whose cells are the same protocol without the object-store arm.
type spectrumCell struct {
	backend
	spec  ycsb.Spec
	fault bool // fail one server mid-run
}

func (c spectrumCell) String() string {
	s := c.backend.String() + "/" + c.spec.Name
	if c.interval > 0 {
		s += "/" + c.interval.String()
	}
	if c.fault {
		s += "/fault"
	}
	return s
}

func objstoreAt(rf int, interval time.Duration, mode objstore.ReadMode) backend {
	return backend{db: "ObjStore", rf: rf, interval: interval, mode: mode}
}

// spectrumCells enumerates the canonical order: workload-major; per
// workload the anchor-RF backend comparison (HBase, the three Cassandra
// levels, objstore read-quorum), then the object store's RF sweep at the
// fastest anti-entropy interval and its interval sweep at the anchor RF;
// finally one fault-injected object-store cell per interval.
func spectrumCells(o Options) []spectrumCell {
	anchor := anchorRF(o)
	ivals := o.SpectrumReplIntervals
	fastest := ivals[0]
	var cells []spectrumCell
	for _, spec := range auditSpecs(o) {
		cells = append(cells, spectrumCell{backend: hbaseAt(anchor), spec: spec})
		for _, lv := range levels() {
			cells = append(cells, spectrumCell{backend: cassandraAt(anchor, lv), spec: spec})
		}
		cells = append(cells, spectrumCell{backend: objstoreAt(anchor, fastest, objstore.ReadQuorumFresh), spec: spec})
		for _, rf := range o.ReplicationFactors {
			cells = append(cells, spectrumCell{backend: objstoreAt(rf, fastest, objstore.ReadOne), spec: spec})
		}
		for _, iv := range ivals[1:] {
			cells = append(cells, spectrumCell{backend: objstoreAt(anchor, iv, objstore.ReadOne), spec: spec})
		}
	}
	for _, iv := range ivals {
		cells = append(cells, spectrumCell{
			backend: objstoreAt(anchor, iv, objstore.ReadOne),
			spec:    ycsb.ReadUpdate(o.StressRecords), fault: true,
		})
	}
	return cells
}

// RunSpectrum runs the replication-spectrum grid. Each cell is a
// self-contained deployment with a fresh oracle, fanned out across the
// sweep scheduler; like every experiment the report is bit-identical for
// any parallelism.
func RunSpectrum(o Options) (SpectrumResults, error) {
	return sweep(o, "spectrum", spectrumCells(o), runSpectrumCell)
}

// tailOf returns h's p99, or zero for an absent/empty histogram.
func tailOf(h *stats.Histogram) time.Duration {
	if h == nil || h.Count() == 0 {
		return 0
	}
	return h.Percentile(99)
}

// writeHistogram picks the run's mutation histogram: updates for the
// read&update mix, inserts for read-latest.
func writeHistogram(res *ycsb.Result) *stats.Histogram {
	upd, ins := res.PerOp[ycsb.OpUpdate], res.PerOp[ycsb.OpInsert]
	if upd != nil && (ins == nil || upd.Count() >= ins.Count()) {
		return upd
	}
	return ins
}

// runSpectrumCell deploys one backend, attaches an oracle, loads, runs the
// workload (optionally failing and recovering a server mid-run), lets
// replication, repairs and hint replay settle, and snapshots the report.
// Cassandra cells run with the replica MutationStage jitter on (see the
// audit's header): without it CL=ONE staleness is structurally zero.
func runSpectrumCell(o Options, c spectrumCell) (SpectrumResults, error) {
	o.MutationStageDelay = auditMutationStage
	d := deploy(o, c.backend, c.spec)
	oracle := consistency.New()
	d.attach(oracle, nil)
	out := SpectrumResult{
		DB: c.db, Workload: c.spec.Name, Level: c.level(),
		RF: c.rf, ReplInterval: c.interval, Fault: c.fault,
	}
	err := d.run(o.Threads, func(p *sim.Proc) {
		rcfg := o.stressRun(0)
		if c.fault {
			// Fail one server a quarter into the run and recover it at
			// the midpoint, by operation progress so the cycle lands
			// inside the measured window at every profile scale.
			victim := d.clus.Nodes[serverNodes/2]
			rcfg.Events = []ycsb.RunEvent{
				{AfterOps: o.StressOps / 4, Fn: victim.Fail},
				{AfterOps: o.StressOps / 2, Fn: victim.Recover},
			}
			if d.obj != nil {
				// The object store's victim instead stays down for a fixed
				// wall of simulated time. Op-based recovery would shrink
				// the outage below the async retry budget at small scales,
				// and the spillover-then-updater path — the mechanism whose
				// interval dependence FS3 measures — needs the target to
				// stay down past the retries.
				rcfg.Events = []ycsb.RunEvent{{AfterOps: o.StressOps / 4, Fn: func() {
					victim.Fail()
					d.k.Go("spectrum-recover", func(q *sim.Proc) {
						q.Sleep(spectrumFaultDowntime)
						victim.Recover()
					})
				}}}
			}
		}
		res := d.phase(p, c.spec, rcfg)
		out.Runtime = res.Throughput
		out.Mean = res.MeanLatency()
		out.ReadP99 = tailOf(res.PerOp[ycsb.OpRead])
		out.WriteP99 = tailOf(writeHistogram(&res))
		// Settle long enough for at least two anti-entropy passes (the
		// object store's convergence is interval-bounded) and, under
		// fault injection, for the post-recovery catch-up and the
		// hint-replay loop to finish.
		settle := quiesce
		if 2*c.interval > settle {
			settle = 2 * c.interval
		}
		if c.fault && settle < auditFaultSettle {
			settle = auditFaultSettle
		}
		p.Sleep(settle)
	})
	// The final report (not the runner's end-of-phase snapshot) includes
	// propagation that completed during the settle sleep — background
	// repairs and hint replay — so t-visibility and apply counts are
	// complete; the read-side staleness counters are identical, since no
	// client reads happen after the run.
	if oracle != nil {
		out.Consistency = oracle.Report()
	}
	return SpectrumResults{out}, err
}

// get returns the healthy cell for (db, workload, level, rf, interval), or
// nil. A zero interval matches any (the non-objstore backends).
func (r SpectrumResults) get(db, workload, level string, rf int, interval time.Duration) *SpectrumResult {
	for i := range r {
		m := &r[i]
		if m.DB == db && m.Workload == workload && m.Level == level && m.RF == rf && !m.Fault &&
			(interval == 0 || m.ReplInterval == interval) {
			return m
		}
	}
	return nil
}

// faults returns the fault-injected cells in interval order.
func (r SpectrumResults) faults() []*SpectrumResult {
	var out []*SpectrumResult
	for i := range r {
		if r[i].Fault {
			out = append(out, &r[i])
		}
	}
	return out
}

// Tables renders the spectrum as one row per cell.
func (r SpectrumResults) Tables() []*stats.Table {
	t := stats.NewTable("Replication spectrum — synchronous to asynchronous replication side by side",
		"db", "workload", "level", "rf", "repl-interval", "fault",
		"ops/sec", "mean-latency", "read-p99", "write-p99",
		"reads", "stale-%", "async-regress", "mono-viol",
		"tvis-all-p50", "tvis-all-p99")
	for _, m := range r {
		c := m.Consistency
		interval := "-"
		if m.ReplInterval > 0 {
			interval = m.ReplInterval.String()
		}
		t.AddRow(m.DB, m.Workload, m.Level, m.RF, interval, m.Fault,
			m.Runtime, m.Mean.Round(time.Microsecond).String(),
			m.ReadP99.Round(time.Microsecond).String(),
			m.WriteP99.Round(time.Microsecond).String(),
			c.Reads, fmt.Sprintf("%.3f", 100*c.StaleFraction()),
			c.AsyncRegressions, c.MonotonicViolations,
			c.TVisAllP50.Round(time.Microsecond).String(),
			c.TVisAllP99.Round(time.Microsecond).String())
	}
	return []*stats.Table{t}
}

// Findings evaluates the spectrum's qualitative claims. The grid's axes
// come from its rows: the anchor RF is the HBase cells', the fastest
// anti-entropy interval the read-quorum cells', and the workloads are
// those of the healthy cells, in row order.
func (r SpectrumResults) Findings() []Finding {
	var anchor int
	var fastest time.Duration
	var workloads []string
	for _, m := range r {
		if m.Fault {
			continue
		}
		if m.DB == "HBase" && anchor == 0 {
			anchor = m.RF
		}
		if m.Level == "async/read-quorum" && fastest == 0 {
			fastest = m.ReplInterval
		}
		if !slices.Contains(workloads, m.Workload) {
			workloads = append(workloads, m.Workload)
		}
	}
	var fs []Finding

	// FS1: the async-vs-CL=ONE trade at the anchor cell, on the
	// update-heavy mix where read/write interleaving exposes it. Acking
	// after one durable local apply buys a write tail no worse than
	// CL=ONE's synchronous fan-out (within GC-pause noise), and the bill
	// arrives on the read side: read-one staleness far exceeds CL=ONE's —
	// ONE's replicas were already in flight at ack time and its reads pin
	// the main replica, while rotating reads here race replication that
	// only starts after the ack — including reads that regress behind
	// in-flight replication (async regressions), a signature no
	// synchronous setting produces.
	pass1, detail1 := true, ""
	{
		const wl = "read-update"
		obj := r.get("ObjStore", wl, "async/read-one", anchor, fastest)
		one := r.get("Cassandra", wl, "ONE", anchor, 0)
		if obj == nil || one == nil {
			pass1 = false
		} else {
			if obj.Consistency.StaleFraction() <= one.Consistency.StaleFraction() ||
				obj.Consistency.AsyncRegressions == 0 ||
				obj.WriteP99 > one.WriteP99*3/2 {
				pass1 = false
			}
			detail1 = fmt.Sprintf("%s: write-p99 async=%v ONE=%v, stale async=%.3f%% ONE=%.3f%%, async-regress async=%d ONE=%d",
				wl, obj.WriteP99.Round(time.Microsecond), one.WriteP99.Round(time.Microsecond),
				100*obj.Consistency.StaleFraction(), 100*one.Consistency.StaleFraction(),
				obj.Consistency.AsyncRegressions, one.Consistency.AsyncRegressions)
		}
	}
	fs = append(fs, Finding{
		ID:     "FS1",
		Claim:  "async ack matches CL=ONE's write tail and pays for it in read-side visibility: higher staleness plus async regressions on the read&update mix",
		Pass:   pass1 && detail1 != "",
		Detail: detail1,
	})

	// FS2: write latency decouples from RF while visibility does not —
	// across the object store's RF sweep the write tail stays flat
	// (within noise) while TVisAll keeps growing with the replica count.
	pass2, detail2 := true, ""
	for _, wl := range workloads {
		var cells []*SpectrumResult
		for i := range r {
			if m := &r[i]; m.DB == "ObjStore" && m.Workload == wl && m.Level == "async/read-one" &&
				m.ReplInterval == fastest && !m.Fault {
				cells = append(cells, m)
			}
		}
		if len(cells) < 2 {
			pass2 = false
			continue
		}
		first, last := cells[0], cells[len(cells)-1]
		// Flat: the largest swept RF's write tail within 1.5× of the
		// smallest's (GC-pause noise), not the paper's monotone growth.
		if last.WriteP99 > first.WriteP99*3/2 {
			pass2 = false
		}
		if last.Consistency.TVisAllP99 <= first.Consistency.TVisAllP99 {
			pass2 = false
		}
		detail2 += fmt.Sprintf("%s: write-p99 rf%d=%v rf%d=%v, tvis-all-p99 rf%d=%v rf%d=%v  ",
			wl, first.RF, first.WriteP99.Round(time.Microsecond),
			last.RF, last.WriteP99.Round(time.Microsecond),
			first.RF, first.Consistency.TVisAllP99.Round(time.Microsecond),
			last.RF, last.Consistency.TVisAllP99.Round(time.Microsecond))
	}
	fs = append(fs, Finding{
		ID:     "FS2",
		Claim:  "asynchronous replication decouples the write tail from RF while all-replica visibility keeps growing with it",
		Pass:   pass2 && detail2 != "",
		Detail: detail2,
	})

	// FS3: under fault injection the anti-entropy interval bounds
	// convergence. Jobs for the down server exhaust their retries and
	// spill to the updater, which only runs on the replicator's period —
	// so the time for the recovered replica to see the down-window writes
	// (the all-replica visibility tail) grows with the interval.
	var tvis []float64
	detail3 := ""
	for _, m := range r.faults() {
		tvis = append(tvis, float64(m.Consistency.TVisAllP99))
		detail3 += fmt.Sprintf("interval=%v: tvis-all-p99=%v stale=%.3f%% async-regress=%d  ",
			m.ReplInterval, m.Consistency.TVisAllP99.Round(time.Millisecond),
			100*m.Consistency.StaleFraction(), m.Consistency.AsyncRegressions)
	}
	fs = append(fs, Finding{
		ID:     "FS3",
		Claim:  "under fault injection the anti-entropy interval bounds recovery: the all-replica visibility tail grows with the replicator period",
		Pass:   stats.Increasing(tvis),
		Detail: detail3,
	})

	// FS4: read-quorum-of-fresh buys back read-side staleness without
	// touching the write path: at the anchor cell its stale fraction is
	// at most read-one's, at a higher read tail.
	pass4, detail4 := true, ""
	for _, wl := range workloads {
		one := r.get("ObjStore", wl, "async/read-one", anchor, fastest)
		q := r.get("ObjStore", wl, "async/read-quorum", anchor, fastest)
		if one == nil || q == nil {
			pass4 = false
			continue
		}
		if q.Consistency.StaleFraction() > one.Consistency.StaleFraction() {
			pass4 = false
		}
		detail4 += fmt.Sprintf("%s: stale read-one=%.3f%% read-quorum=%.3f%%, read-p99 read-one=%v read-quorum=%v  ",
			wl, 100*one.Consistency.StaleFraction(), 100*q.Consistency.StaleFraction(),
			one.ReadP99.Round(time.Microsecond), q.ReadP99.Round(time.Microsecond))
	}
	fs = append(fs, Finding{
		ID:     "FS4",
		Claim:  "read-quorum-of-fresh reduces observed staleness versus read-one at the same write path",
		Pass:   pass4 && detail4 != "",
		Detail: detail4,
	})

	return fs
}
