package core

import (
	"fmt"
	"os"
	"strings"
	"time"

	"cloudbench/internal/sim"
	"cloudbench/internal/stats"
	"cloudbench/internal/trace"
	"cloudbench/internal/ycsb"
)

// The trace breakdown experiment.
//
// The paper's figures report end-to-end latency and leave the causal story
// — WAL versus memtable, fan-out versus service, read repair's growing
// bill — to prose. This experiment instruments the same request paths with
// the deterministic tracer and decomposes latency by phase on the paper's
// own grid: HBase (strong) and Cassandra at ONE/QUORUM/writeALL, each
// swept over the replication factors, under the read&update stress
// workload (the 50/50 mixer where both the read and write paths matter).
//
// Expected shape, asserted by TraceResults.Findings:
//   - HBase reads are served by the single region owner: no replica
//     fan-out phase at any replication factor (the mechanism behind F1 —
//     HBase read latency is flat in RF);
//   - at CL=ONE the read-repair share of Cassandra read latency grows
//     with the replication factor for RF ≥ 3: every read triggers repair
//     of RF−1 replicas while the read itself still touches one (the
//     mechanism behind F4);
//   - HBase updates pay a synchronous WAL append; Cassandra's periodic
//     commit-log sync keeps its update path free of WAL stalls (§4.2's
//     write-path asymmetry).
//
// Shares are phase time over summed root latency; phases that overlap or
// run concurrently (fan-out legs, background repair) can sum past 100%.

// TraceResult is one cell of the trace breakdown: one database, one
// consistency setting, one replication factor, with the tracer's per-class
// per-phase decomposition attached.
type TraceResult struct {
	DB    string
	Level string
	RF    int

	Runtime float64 // measured run-phase throughput, ops/s
	Mean    time.Duration
	Trace   trace.Report
}

// TraceResults collects the full grid.
type TraceResults []TraceResult

// traceCells enumerates the canonical order: the HBase control sweep
// first, then Cassandra level-major with RF ascending, but for the cells
// that would repeat ONE's (repeatsOne).
func traceCells(o Options) []backend {
	var cells []backend
	for _, rf := range o.ReplicationFactors {
		cells = append(cells, hbaseAt(rf))
	}
	for _, lv := range levels() {
		for _, rf := range o.ReplicationFactors {
			if !lv.repeatsOne(rf) {
				cells = append(cells, cassandraAt(rf, lv))
			}
		}
	}
	return cells
}

// RunTraceBreakdown runs the trace grid. Each cell is a self-contained
// deployment with a fresh tracer, fanned out across the sweep scheduler;
// span IDs count spans in record order, so the report — and the raw span
// stream — is bit-identical for any parallelism.
func RunTraceBreakdown(o Options) (TraceResults, error) {
	return sweep(o, "tracebreak", traceCells(o), func(o Options, b backend) (TraceResults, error) {
		res, _, err := runTraceCell(o, b, 0)
		return TraceResults{res}, err
	})
}

// traceSpanKeep bounds raw span retention for exports: enough for several
// thousand ops' full phase detail without unbounded growth.
const traceSpanKeep = 200_000

// RunTraceSpans runs the one span-retaining cell — Cassandra at CL=ONE and
// the largest swept replication factor, the cell with the richest phase
// mix — and returns its result plus up to keep raw spans for export.
func RunTraceSpans(o Options, keep int) (TraceResult, []trace.Span, error) {
	rf := o.ReplicationFactors[len(o.ReplicationFactors)-1]
	return runTraceCell(o, cassandraAt(rf, levels()[0]), keep)
}

// runTraceExperiment is the tracebreak registry entry. It sweeps the
// profile's replication factors like every other entry (RF 1-6 at quick
// and paper, 1 and 3 at smoke; -rf narrows them); with -trace-out it also
// exports one span-retaining cell as Chrome trace-event JSON.
func runTraceExperiment(o Options, cli CLI) (Report, error) {
	res, err := RunTraceBreakdown(o)
	if err != nil || cli.TraceOut == "" {
		return res, err
	}
	_, spans, err := RunTraceSpans(o, traceSpanKeep)
	if err != nil {
		return nil, err
	}
	f, err := os.Create(cli.TraceOut)
	if err != nil {
		return nil, err
	}
	if err := trace.WriteChrome(f, spans); err != nil {
		f.Close()
		return nil, err
	}
	if err := f.Close(); err != nil {
		return nil, err
	}
	ts := res.Tables()
	ts[0].Note = fmt.Sprintf("wrote %d spans to %s (chrome://tracing / Perfetto format)", len(spans), cli.TraceOut)
	return printed{ts, res.Findings()}, nil
}

// runTraceCell deploys one database with a tracer attached, loads, runs
// the stress workload with per-op root spans, lets background repair
// settle, and snapshots the tracer's report.
func runTraceCell(o Options, b backend, keep int) (TraceResult, []trace.Span, error) {
	// The decomposition is after the *structural* phase costs — how the
	// request paths differ by database, consistency level, and replication
	// factor. JVM pauses are additive noise on every phase and, at small
	// profile scales, whether a 30 ms pause lands on a measured op moves a
	// class's summed latency (every share's denominator) by more than the
	// effects under study. Trace cells therefore run with GC off; the
	// latency experiments keep it on (and stay bit-identical).
	b.noGC = true
	spec := ycsb.ReadUpdate(o.StressRecords)
	d := deploy(o, b, spec)
	// A value, not trace.New's pointer: the cell's tracer is never nil, so
	// the calls below need no nil gate (hookguard guards nullable hooks).
	var tr trace.Tracer
	if keep > 0 {
		tr.KeepSpans(keep)
	}
	d.attach(nil, &tr)
	out := TraceResult{DB: b.db, Level: b.level(), RF: b.rf}
	err := d.run(o.Threads, func(p *sim.Proc) {
		// The micro benchmark's unsaturated client shape (§4.1): at full
		// stress concurrency, queue waits inside composite repair spans
		// grow with cluster load, not with the replication factor, and
		// drown the structural shares the decomposition is after.
		rcfg := o.stressRun(0)
		rcfg.Threads = o.MicroThreads
		res := d.phase(p, spec, rcfg)
		out.Runtime = res.Throughput
		out.Mean = res.MeanLatency()
		// Background repair spawned by measured reads is still attributed
		// to them; let it drain before snapshotting.
		p.Sleep(quiesce)
	})
	out.Trace = tr.Report()
	return out, tr.Spans(), err
}

// phaseShare returns the share of the named phase within the named class
// of the cell, 0 when the phase recorded nothing.
func (m *TraceResult) phaseShare(class, phase string) float64 {
	cs := m.Trace.Class(class)
	if cs == nil {
		return 0
	}
	ps := cs.Phase(phase)
	if ps == nil {
		return 0
	}
	return ps.Share
}

// Tables renders the decomposition as one row per (cell, class, phase): a
// long narrow table meant for downstream plotting, so CSV whatever -csv
// says.
func (r TraceResults) Tables() []*stats.Table {
	t := stats.NewTable("Per-phase latency decomposition — phase share of class latency by consistency setting and replication factor",
		"db", "level", "rf", "class", "ops", "ops/sec", "class-mean", "class-p99",
		"phase", "count", "phase-total", "share-%", "phase-p50", "phase-p99")
	for _, m := range r {
		for _, cs := range m.Trace.Classes {
			for _, ps := range cs.Phases {
				t.AddRow(m.DB, m.Level, m.RF, cs.Class, cs.Ops,
					fmt.Sprintf("%.0f", m.Runtime),
					cs.Mean.Round(time.Microsecond).String(),
					cs.P99.Round(time.Microsecond).String(),
					ps.Phase, ps.Count,
					ps.Total.Round(time.Microsecond).String(),
					fmt.Sprintf("%.2f", 100*ps.Share),
					ps.P50.Round(time.Microsecond).String(),
					ps.P99.Round(time.Microsecond).String())
			}
		}
	}
	t.CSVOnly = true
	return []*stats.Table{t}
}

// Findings evaluates the decomposition's qualitative claims.
func (r TraceResults) Findings() []Finding {
	var fs []Finding

	// FT1: HBase reads never fan out — the single region owner serves
	// them, which is why F1 finds HBase read latency flat in RF.
	hbCells, hbFanout := 0, int64(0)
	for _, m := range r {
		if m.DB != "HBase" {
			continue
		}
		hbCells++
		if cs := m.Trace.Class("read"); cs != nil {
			if ps := cs.Phase("fanout"); ps != nil {
				hbFanout += ps.Count
			}
		}
	}
	fs = append(fs, Finding{
		ID:     "FT1",
		Claim:  "HBase reads show no replica fan-out phase at any replication factor",
		Pass:   hbCells > 0 && hbFanout == 0,
		Detail: fmt.Sprintf("%d cells: read fan-out spans=%d", hbCells, hbFanout),
	})

	// FT2: at CL=ONE the read-repair share of Cassandra read latency
	// grows with RF for RF ≥ 3 — repair touches RF−1 replicas while the
	// read touches one, the mechanism behind F4.
	var shares []float64
	var rfs []int
	for _, m := range r {
		if m.DB == "Cassandra" && m.Level == "ONE" && m.RF >= 3 {
			shares = append(shares, m.phaseShare("read", "read-repair"))
			rfs = append(rfs, m.RF)
		}
	}
	detail2 := ""
	for i, v := range shares {
		detail2 += fmt.Sprintf(" rf%d=%.1f%%", rfs[i], 100*v)
	}
	fs = append(fs, Finding{
		ID:     "FT2",
		Claim:  "Cassandra CL=ONE read-repair share of read latency increases with RF for RF >= 3",
		Pass:   stats.Increasing(shares),
		Detail: strings.TrimSpace(detail2),
	})

	// FT3: the write-path asymmetry — HBase updates pay a synchronous WAL
	// append, Cassandra's periodic commit-log sync keeps its update path
	// free of WAL spans.
	hbWAL, caWAL := int64(0), int64(0)
	hbUpd, caUpd := 0, 0
	for _, m := range r {
		cs := m.Trace.Class("update")
		if cs == nil {
			continue
		}
		var c int64
		if ps := cs.Phase("wal"); ps != nil {
			c = ps.Count
		}
		if m.DB == "HBase" {
			hbUpd++
			hbWAL += c
		} else {
			caUpd++
			caWAL += c
		}
	}
	fs = append(fs, Finding{
		ID:     "FT3",
		Claim:  "HBase updates include synchronous WAL appends; Cassandra updates (periodic commit-log sync) include none",
		Pass:   hbUpd > 0 && caUpd > 0 && hbWAL > 0 && caWAL == 0,
		Detail: fmt.Sprintf("wal spans: hbase=%d (%d cells) cassandra=%d (%d cells)", hbWAL, hbUpd, caWAL, caUpd),
	})
	return fs
}
