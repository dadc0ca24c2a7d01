package core

import (
	"fmt"
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
// The object-store cells attach the oracle under AckAsync semantics: a
// client that reads an older version while the newer write's replication
// is still in flight is reported as an async regression (the priced-in
// visibility cost of ack-before-replicate), not a monotonicity violation.
//
// Expected shape, asserted by CheckSpectrum:
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

// spectrumCell is one grid point to run.
type spectrumCell struct {
	db       string
	lv       ConsistencySetting // Cassandra cells
	mode     objstore.ReadMode  // object-store cells
	rf       int
	interval time.Duration // object-store cells
	spec     ycsb.Spec
	fault    bool
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
		cells = append(cells, spectrumCell{db: "HBase", lv: ConsistencySetting{Name: "strong"}, rf: anchor, spec: spec})
		for _, lv := range levels() {
			cells = append(cells, spectrumCell{db: "Cassandra", lv: lv, rf: anchor, spec: spec})
		}
		cells = append(cells, spectrumCell{
			db: "ObjStore", mode: objstore.ReadQuorumFresh, rf: anchor, interval: fastest, spec: spec,
		})
		for _, rf := range o.ReplicationFactors {
			cells = append(cells, spectrumCell{
				db: "ObjStore", mode: objstore.ReadOne, rf: rf, interval: fastest, spec: spec,
			})
		}
		for _, iv := range ivals[1:] {
			cells = append(cells, spectrumCell{
				db: "ObjStore", mode: objstore.ReadOne, rf: anchor, interval: iv, spec: spec,
			})
		}
	}
	for _, iv := range ivals {
		cells = append(cells, spectrumCell{
			db: "ObjStore", mode: objstore.ReadOne, rf: anchor, interval: iv,
			spec: ycsb.ReadUpdate(o.StressRecords), fault: true,
		})
	}
	return cells
}

// RunSpectrum runs the replication-spectrum grid. Each cell is a
// self-contained deployment with a fresh oracle, fanned out across the
// sweep scheduler; like every experiment the report is bit-identical for
// any parallelism.
func RunSpectrum(o Options) (SpectrumResults, error) {
	cells := spectrumCells(o)
	return runCells(o.workers(), len(cells), func(i int) (SpectrumResult, error) {
		res, err := runSpectrumCell(o, cells[i])
		if err != nil {
			return res, fmt.Errorf("spectrum %s/%s/rf%d: %w", cells[i].db, cells[i].level(), cells[i].rf, err)
		}
		return res, nil
	})
}

// level names the cell's consistency setting for reports.
func (c spectrumCell) level() string {
	if c.db == "ObjStore" {
		return "async/" + c.mode.String()
	}
	return c.lv.Name
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

// runSpectrumCell deploys one backend, attaches an oracle (AckAsync for
// the object store), loads, runs the workload (optionally failing and
// recovering a server mid-run), lets replication settle, and snapshots
// the report.
func runSpectrumCell(o Options, c spectrumCell) (SpectrumResult, error) {
	var d *deployment
	switch c.db {
	case "HBase":
		d = deployHBase(o, c.rf, c.spec)
	case "Cassandra":
		oc := o
		oc.MutationStageDelay = auditMutationStage
		d = deployCassandra(oc, c.rf, c.lv.Read, c.lv.Write)
	default:
		d = deployObjstore(o, c.rf, c.interval, c.mode)
	}
	oracle := consistency.New()
	switch {
	case d.hb != nil:
		d.hb.SetOracle(oracle)
	case d.ca != nil:
		d.ca.SetOracle(oracle)
	default:
		if oracle != nil {
			oracle.SetAckSemantics(consistency.AckAsync)
		}
		d.obj.SetOracle(oracle)
	}
	out := SpectrumResult{
		DB: c.db, Workload: c.spec.Name, Level: c.level(),
		RF: c.rf, ReplInterval: c.interval, Fault: c.fault,
	}
	err := d.drive(func(p *sim.Proc) {
		w := ycsb.NewWorkload(c.spec)
		d.loadAndSettle(p, w, o.Threads)
		rcfg := ycsb.RunConfig{
			Threads:        o.Threads,
			Ops:            o.StressOps,
			WarmupFraction: o.WarmupFraction,
			Oracle:         oracle,
		}
		if c.fault {
			// Fail one server a quarter into the run and hold it down for a
			// fixed wall of simulated time. Op-based recovery (the audit's
			// scheme) would shrink the outage below the async retry budget
			// at small scales, and the spillover-then-updater path — the
			// mechanism whose interval dependence FS3 measures — needs the
			// target to stay down past the retries.
			victim := d.clus.Nodes[o.ServerNodes/2]
			rcfg.Events = []ycsb.RunEvent{
				{AfterOps: o.StressOps / 4, Fn: func() {
					victim.Fail()
					d.k.Go("spectrum-recover", func(q *sim.Proc) {
						q.Sleep(spectrumFaultDowntime)
						victim.Recover()
					})
				}},
			}
		}
		run := c.spec
		run.RecordCount = w.Inserted()
		wl := ycsb.NewWorkload(run)
		res := ycsb.Run(p, d.newClient, wl, rcfg)
		out.Runtime = res.Throughput
		out.Mean = res.MeanLatency()
		out.ReadP99 = tailOf(res.PerOp[ycsb.OpRead])
		out.WriteP99 = tailOf(writeHistogram(&res))
		// Settle long enough for at least two anti-entropy passes (the
		// object store's convergence is interval-bounded) and, under
		// fault injection, for the post-recovery catch-up to finish.
		settle := quiesce
		if 2*c.interval > settle {
			settle = 2 * c.interval
		}
		if c.fault && settle < auditFaultSettle {
			settle = auditFaultSettle
		}
		p.Sleep(settle)
	})
	if oracle != nil {
		out.Consistency = oracle.Report()
	}
	return out, err
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

// Table renders the spectrum as one row per cell.
func (r SpectrumResults) Table() *stats.Table {
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
	return t
}

// CheckSpectrum evaluates the spectrum's qualitative claims.
func CheckSpectrum(o Options, r SpectrumResults) []Finding {
	anchor := anchorRF(o)
	fastest := o.SpectrumReplIntervals[0]
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
		spec := ycsb.ReadUpdate(o.StressRecords)
		obj := r.get("ObjStore", spec.Name, "async/read-one", anchor, fastest)
		one := r.get("Cassandra", spec.Name, "ONE", anchor, 0)
		if obj == nil || one == nil {
			pass1 = false
		} else {
			if obj.Consistency.StaleFraction() <= one.Consistency.StaleFraction() ||
				obj.Consistency.AsyncRegressions == 0 ||
				obj.WriteP99 > one.WriteP99*3/2 {
				pass1 = false
			}
			detail1 = fmt.Sprintf("%s: write-p99 async=%v ONE=%v, stale async=%.3f%% ONE=%.3f%%, async-regress async=%d ONE=%d",
				spec.Name, obj.WriteP99.Round(time.Microsecond), one.WriteP99.Round(time.Microsecond),
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
	for _, spec := range auditSpecs(o) {
		var cells []*SpectrumResult
		for _, rf := range o.ReplicationFactors {
			if m := r.get("ObjStore", spec.Name, "async/read-one", rf, fastest); m != nil {
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
			spec.Name, first.RF, first.WriteP99.Round(time.Microsecond),
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
	pass3, detail3 := true, ""
	if f := r.faults(); len(f) >= 2 {
		for i := 1; i < len(f); i++ {
			if f[i].Consistency.TVisAllP99 <= f[i-1].Consistency.TVisAllP99 {
				pass3 = false
			}
		}
		for _, m := range f {
			detail3 += fmt.Sprintf("interval=%v: tvis-all-p99=%v stale=%.3f%% async-regress=%d  ",
				m.ReplInterval, m.Consistency.TVisAllP99.Round(time.Millisecond),
				100*m.Consistency.StaleFraction(), m.Consistency.AsyncRegressions)
		}
	} else {
		pass3 = false
	}
	fs = append(fs, Finding{
		ID:     "FS3",
		Claim:  "under fault injection the anti-entropy interval bounds recovery: the all-replica visibility tail grows with the replicator period",
		Pass:   pass3 && detail3 != "",
		Detail: detail3,
	})

	// FS4: read-quorum-of-fresh buys back read-side staleness without
	// touching the write path: at the anchor cell its stale fraction is
	// at most read-one's, at a higher read tail.
	pass4, detail4 := true, ""
	for _, spec := range auditSpecs(o) {
		one := r.get("ObjStore", spec.Name, "async/read-one", anchor, fastest)
		q := r.get("ObjStore", spec.Name, "async/read-quorum", anchor, fastest)
		if one == nil || q == nil {
			pass4 = false
			continue
		}
		if q.Consistency.StaleFraction() > one.Consistency.StaleFraction() {
			pass4 = false
		}
		detail4 += fmt.Sprintf("%s: stale read-one=%.3f%% read-quorum=%.3f%%, read-p99 read-one=%v read-quorum=%v  ",
			spec.Name, 100*one.Consistency.StaleFraction(), 100*q.Consistency.StaleFraction(),
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
