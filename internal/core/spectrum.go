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

// The replication-spectrum experiment: one consistency grid.
//
// The paper's §4.1 and §4.3 explain Cassandra's latency curves with a
// causal story about stale replicas: writes at CL=ONE ack on the fastest
// replica while the fixed "main replica" that serves subsequent reads may
// lag behind, and read repair is what closes the gap. The paper never
// measures the staleness itself, and its grid stops at CL=ONE, the
// weakest setting it measures: the coordinator still fans the mutation to
// every replica in the request path and waits for one ack.
// Asynchronous replication, the Swift/Dynamo end of the spectrum, acks
// after a single durable local apply and replicates strictly after the
// ack.
//
// This grid measures both halves with the consistency oracle, on the two
// workloads whose read/write interleaving makes staleness observable
// (read-latest targets just-written keys; read&update is the 50/50 mixer
// of Fig. 3). The synchronous half is the performance figures' CL × RF
// grid: HBase (the strong-consistency control) and Cassandra at
// ONE/QUORUM/writeALL at every swept RF. The asynchronous half is the
// object store: read-quorum-of-fresh at the anchor RF, read-one across
// its replication-factor sweep at the fastest anti-entropy interval, and
// its interval sweep at the anchor RF. Fault cells close the grid:
// Cassandra at ONE, then one object-store cell per interval. Every cell
// reports throughput, latency tails, client-centric staleness and
// t-visibility side by side.
//
// Cassandra cells run with the replica MutationStage jitter on
// (backend.stageDelay): without it the simulated fan-out delivers
// strictly FIFO per node and a read issued after a write's ack can never
// overtake the main replica's pending apply, so CL=ONE staleness would be
// structurally zero — unlike a real cluster, where per-message stage
// hand-off and JVM scheduling variance reorder the apply behind the read.
// The latency experiments leave the jitter off (it is second order for
// latency), which keeps Fig. 1–3 bit-identical.
//
// Expected shape, asserted by SpectrumResults.Findings — the synchronous
// half (FA1–FA4):
//   - HBase (single-owner regions) and Cassandra at QUORUM/writeALL
//     (R+W > N) never serve stale reads: any read set intersects every
//     acked write set, and digest mismatch triggers blocking repair
//     before the read returns;
//   - at CL=ONE the stale fraction grows strictly with RF: the ack comes
//     from the fastest of RF independently jittered replicas while the
//     read keeps hitting the fixed main replica, so more replicas mean an
//     earlier ack — and a more heavily loaded mutation stage — both
//     widening the window in which an acknowledged write is invisible;
//   - under fault injection (one server fails a quarter into the run and
//     recovers at the midpoint) the recovered server resumes serving its
//     main-replica reads while still missing the down-window writes,
//     visible as a staleness/monotonic spike relative to the healthy
//     cell, and hinted handoff is what closes the gap — visible as
//     hint-replay applies during the settle window;
//
// and the asynchronous half (FS1–FS4):
//   - the async ack path decouples write latency from RF: the object
//     store's write tail is flat across the RF sweep while all-replica
//     visibility (TVisAll) keeps growing — replication work still scales
//     with RF, it just moves off the request path;
//   - the visibility cost is real: at the anchor cell the object store's
//     read-one staleness exceeds Cassandra CL=ONE's, whose fan-out is
//     already in flight at ack time;
//   - under fault injection the anti-entropy interval is the convergence
//     knob: a faster replicator closes the post-recovery staleness window
//     that spilled async jobs left open;
//   - read-quorum-of-fresh buys back most read-side staleness without
//     touching the write path.

const (
	// mutationStageJitter is the per-mutation stage jitter mean (scaled by
	// RF inside cassandra) of every cell that measures Cassandra's
	// staleness: the spectrum's and geo's.
	mutationStageJitter = 150 * time.Microsecond
	// faultSettle keeps a fault cell's simulation alive after the run so
	// the hint-replay loop (default interval 10 s) demonstrably drains.
	faultSettle = 15 * time.Second
	// spectrumFaultDowntime is how long the object-store fault cells hold
	// the victim server down: past the async job retry budget (~6× the
	// default retry base), so replication to it spills to the updater and
	// convergence is carried by the anti-entropy pass.
	spectrumFaultDowntime = time.Second
)

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

// spectrumCell is one grid point of the spectrum.
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

// staleCassandraAt is a Cassandra backend with the replica MutationStage
// jitter on, so its CL=ONE staleness is measurable.
func staleCassandraAt(rf int, lv ConsistencySetting) backend {
	b := cassandraAt(rf, lv)
	b.stageDelay = mutationStageJitter
	return b
}

// spectrumCells enumerates the canonical order: workload-major; per
// workload the HBase control sweep, Cassandra level-major with RF
// ascending, the object store's read-quorum cell at the anchor RF and the
// fastest anti-entropy interval, its RF sweep at that interval and its
// interval sweep at the anchor RF; then the fault cells — Cassandra at ONE
// and the anchor RF, and one object-store cell per interval.
func spectrumCells(o Options) []spectrumCell {
	anchor := anchorRF(o)
	ivals := o.SpectrumReplIntervals
	fastest := ivals[0]
	var cells []spectrumCell
	faultSpec := ycsb.ReadUpdate(o.StressRecords)
	for _, spec := range []ycsb.Spec{ycsb.ReadLatest(o.StressRecords), faultSpec} {
		for _, rf := range o.ReplicationFactors {
			cells = append(cells, spectrumCell{backend: hbaseAt(rf), spec: spec})
		}
		for _, lv := range levels() {
			for _, rf := range o.ReplicationFactors {
				cells = append(cells, spectrumCell{backend: staleCassandraAt(rf, lv), spec: spec})
			}
		}
		cells = append(cells, spectrumCell{backend: objstoreAt(anchor, fastest, objstore.ReadQuorumFresh), spec: spec})
		for _, rf := range o.ReplicationFactors {
			cells = append(cells, spectrumCell{backend: objstoreAt(rf, fastest, objstore.ReadOne), spec: spec})
		}
		for _, iv := range ivals[1:] {
			cells = append(cells, spectrumCell{backend: objstoreAt(anchor, iv, objstore.ReadOne), spec: spec})
		}
	}
	cells = append(cells, spectrumCell{backend: staleCassandraAt(anchor, levels()[0]), spec: faultSpec, fault: true})
	for _, iv := range ivals {
		cells = append(cells, spectrumCell{backend: objstoreAt(anchor, iv, objstore.ReadOne), spec: faultSpec, fault: true})
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
func runSpectrumCell(o Options, c spectrumCell) (SpectrumResults, error) {
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
			victim := d.clus.Nodes[ServerNodes/2]
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
		if c.fault && settle < faultSettle {
			settle = faultSettle
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

// faults returns db's fault-injected cells in row (for the object store,
// interval) order.
func (r SpectrumResults) faults(db string) []*SpectrumResult {
	var out []*SpectrumResult
	for i := range r {
		if r[i].Fault && r[i].DB == db {
			out = append(out, &r[i])
		}
	}
	return out
}

// Tables renders the spectrum as one row per cell: staleness and
// visibility next to latency.
func (r SpectrumResults) Tables() []*stats.Table {
	t := stats.NewTable("Replication spectrum — synchronous to asynchronous replication side by side",
		"db", "workload", "level", "rf", "repl-interval", "fault",
		"ops/sec", "mean-latency", "read-p99", "write-p99",
		"reads", "stale", "stale-%", "mean-lag", "max-lag", "async-regress", "mono-viol",
		"tvis-q-p50", "tvis-q-p99", "tvis-all-p50", "tvis-all-p99",
		"repair-applies", "hint-applies")
	us := func(d time.Duration) string { return d.Round(time.Microsecond).String() }
	for _, m := range r {
		c := m.Consistency
		interval := "-"
		if m.ReplInterval > 0 {
			interval = m.ReplInterval.String()
		}
		t.AddRow(m.DB, m.Workload, m.Level, m.RF, interval, m.Fault,
			m.Runtime, us(m.Mean), us(m.ReadP99), us(m.WriteP99),
			c.Reads, c.StaleReads, fmt.Sprintf("%.3f", 100*c.StaleFraction()),
			fmt.Sprintf("%.2f", c.MeanLag), c.MaxLag, c.AsyncRegressions, c.MonotonicViolations,
			us(c.TVisQuorumP50), us(c.TVisQuorumP99), us(c.TVisAllP50), us(c.TVisAllP99),
			c.RepairApplies, c.HintApplies)
	}
	return []*stats.Table{t}
}

// Findings evaluates the grid's claims: FA1–FA4 on its synchronous half,
// then FS1–FS4 on its asynchronous half.
func (r SpectrumResults) Findings() []Finding {
	return append(r.syncFindings(), r.asyncFindings()...)
}

// syncFindings judges the synchronous half: HBase and Cassandra's level ×
// RF grid and Cassandra's fault cell.
func (r SpectrumResults) syncFindings() []Finding {
	var fs []Finding

	// FA1: HBase, the strong-consistency control, is always fresh.
	hbStale, hbMono, hbCells := int64(0), int64(0), 0
	for _, m := range r {
		if m.DB == "HBase" {
			hbCells++
			hbStale += m.Consistency.StaleReads
			hbMono += m.Consistency.MonotonicViolations
		}
	}
	fs = append(fs, Finding{
		ID:     "FA1",
		Claim:  "HBase serves zero stale reads at every replication factor",
		Pass:   hbCells > 0 && hbStale == 0 && hbMono == 0,
		Detail: fmt.Sprintf("%d cells: stale=%d monotonic-violations=%d", hbCells, hbStale, hbMono),
	})

	// FA2: R+W > N (QUORUM/QUORUM and ONE-read/ALL-write) never stale on
	// a healthy cluster: any read quorum intersects every acked write set.
	var qStale, qReads int64
	qCells := 0
	for _, m := range r {
		if m.DB == "Cassandra" && !m.Fault && (m.Level == "QUORUM" || m.Level == "writeALL") {
			qCells++
			qStale += m.Consistency.StaleReads
			qReads += m.Consistency.Reads
		}
	}
	fs = append(fs, Finding{
		ID:     "FA2",
		Claim:  "Cassandra never serves stale reads when R+W > N (QUORUM, writeALL)",
		Pass:   qCells > 0 && qStale == 0,
		Detail: fmt.Sprintf("%d cells, %d reads: stale=%d", qCells, qReads, qStale),
	})

	// FA3: at CL=ONE the stale fraction grows strictly with RF — the
	// mechanism behind the paper's F4: acks come from the fastest of RF
	// replicas while reads keep hitting the fixed main replica.
	pass3 := true
	detail3 := ""
	for _, spec := range []string{"read-latest", "read-update"} {
		var series []float64
		var rfs []int
		for _, m := range r {
			if m.DB == "Cassandra" && m.Workload == spec && m.Level == "ONE" && !m.Fault {
				series = append(series, m.Consistency.StaleFraction())
				rfs = append(rfs, m.RF)
			}
		}
		if len(series) < 2 {
			continue
		}
		pass3 = pass3 && stats.Increasing(series)
		detail3 += fmt.Sprintf("%s:", spec)
		for i, v := range series {
			detail3 += fmt.Sprintf(" rf%d=%.3f%%", rfs[i], 100*v)
		}
		detail3 += "  "
	}
	fs = append(fs, Finding{
		ID:     "FA3",
		Claim:  "stale-read fraction at CL=ONE strictly increases with replication factor",
		Pass:   pass3 && detail3 != "",
		Detail: detail3,
	})

	// FA4: fault injection at ONE adds staleness/monotonic regressions,
	// and hinted handoff is what closes the gap after recovery.
	if f := r.faults("Cassandra"); len(f) > 0 {
		f := f[0]
		h := r.get(f.DB, f.Workload, f.Level, f.RF, 0)
		pass := f.Consistency.HintApplies > 0
		detail := fmt.Sprintf("fault cell (%s %s rf%d): stale=%.3f%% mono-viol=%d hint-applies=%d",
			f.Level, f.Workload, f.RF, 100*f.Consistency.StaleFraction(),
			f.Consistency.MonotonicViolations, f.Consistency.HintApplies)
		if h != nil {
			pass = pass && f.Consistency.StaleFraction() >= h.Consistency.StaleFraction() &&
				f.Consistency.MonotonicViolations >= h.Consistency.MonotonicViolations
			detail += fmt.Sprintf(" vs healthy: stale=%.3f%% mono-viol=%d",
				100*h.Consistency.StaleFraction(), h.Consistency.MonotonicViolations)
		}
		fs = append(fs, Finding{
			ID:     "FA4",
			Claim:  "fault injection adds staleness at ONE; hinted handoff replays close the gap",
			Pass:   pass,
			Detail: detail,
		})
	}
	return fs
}

// asyncFindings judges the asynchronous half against the synchronous
// one. The axes come from the rows: the anchor RF and the fastest
// anti-entropy interval are the read-quorum cells', and the workloads are
// those of the healthy cells, in row order.
func (r SpectrumResults) asyncFindings() []Finding {
	var anchor int
	var fastest time.Duration
	var workloads []string
	for _, m := range r {
		if m.Fault {
			continue
		}
		if m.Level == "async/read-quorum" && fastest == 0 {
			anchor, fastest = m.RF, m.ReplInterval
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
	for _, m := range r.faults("ObjStore") {
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
