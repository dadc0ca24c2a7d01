package core

import (
	"fmt"
	"time"

	"cloudbench/internal/consistency"
	"cloudbench/internal/sim"
	"cloudbench/internal/stats"
	"cloudbench/internal/ycsb"
)

// The consistency audit.
//
// The paper's §4.1 and §4.3 explain Cassandra's latency curves with a
// causal story about stale replicas: writes at CL=ONE ack on the fastest
// replica while the fixed "main replica" that serves subsequent reads may
// lag behind, and read repair is what closes the gap. The paper never
// measures the staleness itself. This experiment does, with the
// consistency oracle: the same CL × RF grid as the performance figures,
// over the two workloads where staleness matters most (read-latest targets
// just-written keys; read&update is the 50/50 mixer of Fig. 3), plus one
// cell under the failover experiment's fault injection, reporting
// client-centric staleness next to the usual latency and throughput.
//
// Audit cells run Cassandra with the replica MutationStage jitter enabled
// (Options.MutationStageDelay): without it the simulated fan-out delivers
// strictly FIFO per node and a read issued after a write's ack can never
// overtake the main replica's pending apply, so CL=ONE staleness would be
// structurally zero — unlike a real cluster, where per-message stage
// hand-off and JVM scheduling variance reorder the apply behind the read.
// The latency experiments leave the jitter off (it is second order for
// latency); turning it on only here keeps Fig. 1–3 bit-identical.
//
// Expected shape, asserted by CheckAudit:
//   - HBase (single-owner regions, the strong-consistency control) and
//     Cassandra at QUORUM/writeALL (R+W > N) never serve stale reads: any
//     read set intersects every acked write set, and digest mismatch
//     triggers blocking repair before the read returns;
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
//     hint-replay applies during the settle window.

const (
	// auditMutationStage is the per-mutation stage jitter mean (scaled by
	// RF inside cassandra) used by every Cassandra audit cell.
	auditMutationStage = 150 * time.Microsecond
	// auditFaultSettle keeps the simulation alive after the run so the
	// hint-replay loop (default interval 10 s) demonstrably drains.
	auditFaultSettle = 15 * time.Second
)

// AuditResult is one cell of the consistency audit: one database, one
// workload, one consistency setting, one replication factor.
type AuditResult struct {
	DB       string
	Workload string
	Level    string
	RF       int
	Fault    bool // ran under the fail/recover cycle

	// Performance, as in the paper's figures.
	Runtime float64 // measured run-phase throughput, ops/s
	Mean    time.Duration

	// Client-centric consistency over the measured window.
	Consistency consistency.Report
}

// AuditResults collects the full audit grid.
type AuditResults []AuditResult

// auditCell is one grid point to run.
type auditCell struct {
	db    string
	lv    ConsistencySetting
	rf    int
	spec  ycsb.Spec
	fault bool
}

// auditSpecs returns the audited workloads: the two stress workloads whose
// read/write interleaving makes staleness observable.
func auditSpecs(o Options) []ycsb.Spec {
	return []ycsb.Spec{
		ycsb.ReadLatest(o.StressRecords),
		ycsb.ReadUpdate(o.StressRecords),
	}
}

// auditCells enumerates the canonical audit order: workload-major, the
// HBase control sweep first, then Cassandra level-major with RF ascending,
// and the single fault-injected cell last.
func auditCells(o Options) []auditCell {
	var cells []auditCell
	for _, spec := range auditSpecs(o) {
		for _, rf := range o.ReplicationFactors {
			cells = append(cells, auditCell{db: "HBase", lv: ConsistencySetting{Name: "strong"}, rf: rf, spec: spec})
		}
		for _, lv := range levels() {
			for _, rf := range o.ReplicationFactors {
				cells = append(cells, auditCell{db: "Cassandra", lv: lv, rf: rf, spec: spec})
			}
		}
	}
	cells = append(cells, auditCell{
		db: "Cassandra", lv: levels()[0], rf: anchorRF(o),
		spec: ycsb.ReadUpdate(o.StressRecords), fault: true,
	})
	return cells
}

// RunConsistencyAudit runs the audit grid. Each cell is a self-contained
// deployment with a fresh oracle, fanned out across the sweep scheduler;
// like every experiment the report is bit-identical for any parallelism.
func RunConsistencyAudit(o Options) (AuditResults, error) {
	cells := auditCells(o)
	return runCells(o.workers(), len(cells), func(i int) (AuditResult, error) {
		res, err := runAuditCell(o, cells[i])
		if err != nil {
			return res, fmt.Errorf("audit %s/%s/rf%d: %w", cells[i].db, cells[i].lv.Name, cells[i].rf, err)
		}
		return res, nil
	})
}

// runAuditCell deploys one database, attaches an oracle, loads, runs the
// workload (optionally failing and recovering a server mid-run), lets
// repairs and hint replay settle, and snapshots the oracle's report.
func runAuditCell(o Options, c auditCell) (AuditResult, error) {
	var d *deployment
	if c.db == "HBase" {
		d = deployHBase(o, c.rf, c.spec)
	} else {
		oc := o
		oc.MutationStageDelay = auditMutationStage
		d = deployCassandra(oc, c.rf, c.lv.Read, c.lv.Write)
	}
	oracle := consistency.New()
	if d.hb != nil {
		d.hb.SetOracle(oracle)
	} else {
		d.ca.SetOracle(oracle)
	}
	out := AuditResult{DB: c.db, Workload: c.spec.Name, Level: c.lv.Name, RF: c.rf, Fault: c.fault}
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
			// Fail one server a quarter into the run and recover it at
			// the midpoint, by operation progress so the cycle lands
			// inside the measured window at every profile scale.
			victim := d.clus.Nodes[o.ServerNodes/2]
			rcfg.Events = []ycsb.RunEvent{
				{AfterOps: o.StressOps / 4, Fn: victim.Fail},
				{AfterOps: o.StressOps / 2, Fn: victim.Recover},
			}
		}
		run := c.spec
		run.RecordCount = w.Inserted()
		wl := ycsb.NewWorkload(run)
		res := ycsb.Run(p, d.newClient, wl, rcfg)
		out.Runtime = res.Throughput
		out.Mean = res.MeanLatency()
		settle := quiesce
		if c.fault {
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
	return out, err
}

// get returns the audit cell for (db, workload, level, rf) among the
// healthy cells, or nil.
func (r AuditResults) get(db, workload, level string, rf int) *AuditResult {
	for i := range r {
		m := &r[i]
		if m.DB == db && m.Workload == workload && m.Level == level && m.RF == rf && !m.Fault {
			return m
		}
	}
	return nil
}

// fault returns the fault-injected cell, or nil.
func (r AuditResults) fault() *AuditResult {
	for i := range r {
		if r[i].Fault {
			return &r[i]
		}
	}
	return nil
}

// Table renders the audit as one paper-style row per cell: staleness and
// visibility next to latency.
func (r AuditResults) Table() *stats.Table {
	t := stats.NewTable("Consistency audit — client-centric staleness by consistency level and replication factor",
		"db", "workload", "level", "rf", "fault",
		"ops/sec", "mean-latency",
		"reads", "stale", "stale-%", "mean-lag", "max-lag",
		"tvis-q-p50", "tvis-q-p99", "tvis-all-p50", "tvis-all-p99",
		"mono-viol", "repair-applies", "hint-applies")
	for _, m := range r {
		c := m.Consistency
		t.AddRow(m.DB, m.Workload, m.Level, m.RF, m.Fault,
			m.Runtime, m.Mean.Round(time.Microsecond).String(),
			c.Reads, c.StaleReads, fmt.Sprintf("%.3f", 100*c.StaleFraction()),
			fmt.Sprintf("%.2f", c.MeanLag), c.MaxLag,
			c.TVisQuorumP50.Round(time.Microsecond).String(),
			c.TVisQuorumP99.Round(time.Microsecond).String(),
			c.TVisAllP50.Round(time.Microsecond).String(),
			c.TVisAllP99.Round(time.Microsecond).String(),
			c.MonotonicViolations, c.RepairApplies, c.HintApplies)
	}
	return t
}

// CheckAudit evaluates the audit's qualitative claims.
func CheckAudit(r AuditResults) []Finding {
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
		for i := 1; i < len(series); i++ {
			if series[i] <= series[i-1] {
				pass3 = false
			}
		}
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
	if f := r.fault(); f != nil {
		h := r.get(f.DB, f.Workload, f.Level, f.RF)
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
