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
// The target sweep is auto-calibrated per workload: an unthrottled run at
// CL=ONE measures the capacity, and Options.Fig3TargetFractions of that
// capacity become the shared target list for all three levels.
//
// Every (consistency level, workload) pair is a self-contained deployment,
// so the capacity probes fan out across the sweep scheduler first and the
// full level × workload grid fans out after the shared targets are known.
func RunFig3(o Options) (Fig3Results, error) {
	// Capacity probe per workload at ONE.
	out, err := sweep(o, "fig3 capacity probe", fig3Cells(o, levels()[:1], nil), runFig3Cell)
	if err != nil {
		return nil, err
	}
	// Shared target lists from the probed capacities.
	targets := make(map[string][]float64)
	for _, probe := range out {
		for _, f := range o.Fig3TargetFractions {
			targets[probe.Workload] = append(targets[probe.Workload], probe.Runtime*f)
		}
	}
	grid, err := sweep(o, "fig3", fig3Cells(o, levels(), targets), runFig3Cell)
	if err != nil {
		return nil, err
	}
	return append(out, grid...), nil
}

// fig3Cell is one workload at one consistency setting, run through a list
// of target throughputs (0 = unthrottled closed loop).
type fig3Cell struct {
	lv      ConsistencySetting
	spec    ycsb.Spec
	targets []float64
}

func (c fig3Cell) String() string { return c.lv.Name + "/" + c.spec.Name }

// fig3Cells enumerates level × workload, level-major so the rows keep the
// paper's reporting order (ONE, QUORUM, writeALL). Each cell runs
// unthrottled (closed-loop) first — the paper detects the *peak* runtime
// throughput and the closed loop is each level's natural maximum — then
// its workload's throttled targets ascending, so the overloaded
// high-target runs (which leave queue backlogs behind) come last.
func fig3Cells(o Options, lvs []ConsistencySetting, targets map[string][]float64) []fig3Cell {
	var cells []fig3Cell
	for _, lv := range lvs {
		for _, spec := range ycsb.StressWorkloads(o.StressRecords) {
			cells = append(cells, fig3Cell{lv, spec, append([]float64{0}, targets[spec.Name]...)})
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
		for _, target := range c.targets {
			res := d.phase(p, c.spec, o.stressRun(target))
			out = append(out, ConsistencyResult{
				Workload: c.spec.Name,
				Level:    c.lv.Name,
				Target:   target,
				Runtime:  res.Throughput,
				Mean:     res.MeanLatency(),
			})
			p.Sleep(quiesce)
		}
	})
	return out, err
}

// Figures renders one runtime-vs-target panel per workload with a series
// per consistency level, mirroring the paper's Fig. 3. Capacity-probe
// points (target 0) are omitted.
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

// Tables renders Fig. 3 as the paper's panels.
func (r Fig3Results) Tables() []*stats.Table { return figureTables(r.Figures()) }

// peak returns the best runtime throughput for (workload, level) across
// the level's sweep, including its unthrottled closed-loop point, or -1.
func (r Fig3Results) peak(workload, level string) float64 {
	best := -1.0
	for _, m := range r {
		if m.Workload == workload && m.Level == level && m.Runtime > best {
			best = m.Runtime
		}
	}
	return best
}
