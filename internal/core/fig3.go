package core

import (
	"fmt"
	"time"

	"cloudbench/internal/sim"
	"cloudbench/internal/stats"
	"cloudbench/internal/ycsb"
)

// ConsistencyResult is one point of Fig. 3: one workload, one consistency
// level, one target throughput.
type ConsistencyResult struct {
	Workload string
	Level    string
	Target   float64 // offered load, ops/s (0 = unthrottled capacity probe)
	Runtime  float64 // measured runtime throughput, ops/s
	Mean     time.Duration
}

// Fig3Results collects the full stress-consistency sweep.
type Fig3Results []ConsistencyResult

// RunFig3 reproduces the stress benchmark for consistency: Cassandra at
// replication factor 3, three rounds (ONE, QUORUM, write-ALL), each
// running the five Table 1 workloads over a sweep of target throughputs
// and recording the runtime throughput (§4.3). HBase is excluded exactly
// as in the paper: it offers no request-time consistency knob.
//
// The target sweep is auto-calibrated per workload: each CL=ONE cell runs
// unthrottled first, and Options.Fig3TargetFractions of that capacity
// become its own throttled targets and the shared target list of the
// workload's QUORUM and write-ALL cells.
//
// Every (consistency level, workload) pair is a self-contained deployment,
// so the five ONE cells fan out across the sweep scheduler first and the
// other ten fan out once the shared targets are known.
func RunFig3(o Options) (Fig3Results, error) {
	out, err := sweep(o, "fig3", fig3Cells(o, levels()[:1], nil), runFig3Cell)
	if err != nil {
		return nil, err
	}
	targets := make(map[string][]float64)
	for _, m := range out {
		if m.Target == 0 {
			targets[m.Workload] = fig3Targets(o, m.Runtime)
		}
	}
	rest, err := sweep(o, "fig3", fig3Cells(o, levels()[1:], targets), runFig3Cell)
	if err != nil {
		return nil, err
	}
	return append(out, rest...), nil
}

// fig3Targets returns the throttled targets for a measured capacity.
func fig3Targets(o Options, capacity float64) []float64 {
	targets := make([]float64, len(o.Fig3TargetFractions))
	for i, f := range o.Fig3TargetFractions {
		targets[i] = capacity * f
	}
	return targets
}

// fig3Cell is one workload at one consistency setting: an unthrottled
// closed-loop phase, then a list of throttled target throughputs. A cell
// without a target list (probe) takes its targets from its own
// unthrottled phase.
type fig3Cell struct {
	lv      ConsistencySetting
	spec    ycsb.Spec
	targets []float64
	probe   bool
}

func (c fig3Cell) String() string { return c.lv.Name + "/" + c.spec.Name }

// fig3Cells enumerates level × workload, level-major so the rows keep the
// paper's reporting order (ONE, QUORUM, writeALL). Each cell runs
// unthrottled (closed-loop) first — the paper detects the *peak* runtime
// throughput and the closed loop is each level's natural maximum — then
// its workload's throttled targets ascending, so the overloaded
// high-target runs (which leave queue backlogs behind) come last. With no
// targets given, every cell probes its own.
func fig3Cells(o Options, lvs []ConsistencySetting, targets map[string][]float64) []fig3Cell {
	var cells []fig3Cell
	for _, lv := range lvs {
		for _, spec := range ycsb.StressWorkloads(o.StressRecords) {
			cells = append(cells, fig3Cell{lv, spec, targets[spec.Name], targets == nil})
		}
	}
	return cells
}

// runFig3Cell gives the cell a fresh deployment. The paper ran the five
// tests back to back on one cluster and §4.3 itself attributes part of its
// scan result to that ordering ("we run this test after the read latest
// test which has repaired the majority of inconsistency"); isolating the
// workloads keeps every measurement independent of its predecessors — and
// is what makes the grid embarrassingly parallel.
func runFig3Cell(o Options, c fig3Cell) (Fig3Results, error) {
	var out Fig3Results
	d := deploy(o, cassandraAt(3, c.lv), c.spec)
	err := d.run(o.Threads, func(p *sim.Proc) {
		phase := func(target float64) float64 {
			res := d.phase(p, c.spec, o.stressRun(target))
			out = append(out, ConsistencyResult{
				Workload: c.spec.Name,
				Level:    c.lv.Name,
				Target:   target,
				Runtime:  res.Throughput,
				Mean:     res.MeanLatency(),
			})
			p.Sleep(quiesce)
			return res.Throughput
		}
		targets := c.targets
		if capacity := phase(0); c.probe {
			targets = fig3Targets(o, capacity)
		}
		for _, target := range targets {
			phase(target)
		}
	})
	return out, err
}

// Figures renders one runtime-vs-target panel per workload with a series
// per consistency level, mirroring the paper's Fig. 3. Unthrottled points
// (target 0) are omitted; Tables prints them.
func (r Fig3Results) Figures() []*stats.Figure {
	var figs []*stats.Figure
	for _, wl := range workloadOrder() {
		f := stats.NewFigure(
			fmt.Sprintf("Fig. 3 (stress consistency): %s — runtime vs target throughput", wl),
			"target (ops/s)", "runtime (ops/s)")
		for _, lv := range levels() {
			s := f.AddSeries(lv.Name)
			for _, m := range r {
				if m.Workload == wl && m.Level == lv.Name && m.Target > 0 {
					s.Add(float64(int64(m.Target)), m.Runtime)
				}
			}
		}
		figs = append(figs, f)
	}
	return figs
}

// Tables renders Fig. 3 as the paper's panels, then each level's
// unthrottled capacity per workload: the closed-loop runs the F6 findings
// compare.
func (r Fig3Results) Tables() []*stats.Table {
	t := stats.NewTable("Fig. 3 — unthrottled capacity by workload and consistency level",
		"workload", "level", "runtime (ops/s)", "mean-latency")
	for _, wl := range workloadOrder() {
		for _, lv := range levels() {
			for _, m := range r {
				if m.Workload == wl && m.Level == lv.Name && m.Target == 0 {
					t.AddRow(wl, lv.Name, m.Runtime, m.Mean.Round(time.Microsecond).String())
				}
			}
		}
	}
	return append(figureTables(r.Figures()), t)
}

// peaks returns each level's best runtime throughput on workload, in
// levels() order, across the level's sweep including its unthrottled
// closed-loop point; -1 for a level with no rows.
func (r Fig3Results) peaks(workload string) [3]float64 {
	best, lvs := [3]float64{-1, -1, -1}, levels()
	for _, m := range r {
		for i, lv := range lvs {
			if m.Workload == workload && m.Level == lv.Name && m.Runtime > best[i] {
				best[i] = m.Runtime
			}
		}
	}
	return best
}
