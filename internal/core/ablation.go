package core

import (
	"fmt"
	"strings"

	"cloudbench/internal/sim"
	"cloudbench/internal/stats"
	"cloudbench/internal/ycsb"
)

// ClientThreadsAblation is A3's report: HBase's mean intended latency by
// client thread count at a fixed offered load.
type ClientThreadsAblation struct{ *stats.Figure }

// Tables renders the ablation's figure as its series table.
func (a ClientThreadsAblation) Tables() []*stats.Table { return []*stats.Table{a.Table()} }

// AblationClientThreads reproduces the §3.1 methodology warning: with a
// fixed offered load, too few client threads inflate measured latency for
// non-database reasons (requests queue in the client). It sweeps the
// thread count at a constant target throughput against HBase.
func AblationClientThreads(o Options) (ClientThreadsAblation, error) {
	const target = 3000 // offered ops/s
	threadCounts := []int{1, 2, 4, 8, 16, 32}
	a := ClientThreadsAblation{stats.NewFigure(
		fmt.Sprintf("Ablation A3 — intended latency vs client threads at %d ops/s offered", target),
		"client-threads", "mean intended latency (µs)")}
	s := a.AddSeries("HBase read-mostly")
	vals, err := sweep(o, "ablation-a3 threads", threadCounts, func(o Options, threads int) ([]float64, error) {
		spec := ycsb.ReadMostly(o.StressRecords)
		d := deploy(o, hbaseAt(3), spec)
		var mean float64
		err := d.run(o.Threads, func(p *sim.Proc) {
			rcfg := o.stressRun(target)
			rcfg.Threads = threads
			res := d.phase(p, spec, rcfg)
			// Intended latency (from each op's scheduled start) is what
			// exposes client-side queueing when threads are too few.
			mean = float64(res.Intended.Mean().Microseconds())
		})
		return []float64{mean}, err
	})
	if err != nil {
		return a, err
	}
	for i, threads := range threadCounts {
		s.Add(float64(threads), vals[i])
	}
	return a, nil
}

// Findings judges M1: the mean intended latency falls strictly at every
// step up in client threads.
func (a ClientThreadsAblation) Findings() []Finding {
	var reversed []float64 // from the most threads to the fewest: rising
	var detail strings.Builder
	if len(a.Series) > 0 {
		s := a.Series[0]
		for i := len(s.Y) - 1; i >= 0; i-- {
			reversed = append(reversed, s.Y[i])
		}
		for i := range s.X {
			fmt.Fprintf(&detail, "%g=%.0fµs ", s.X[i], s.Y[i])
		}
	}
	return []Finding{{
		ID:     "M1",
		Claim:  "at a fixed offered load, fewer client threads inflate intended latency",
		Pass:   stats.Increasing(reversed),
		Detail: "mean intended latency by threads: " + strings.TrimSpace(detail.String()),
	}}
}
