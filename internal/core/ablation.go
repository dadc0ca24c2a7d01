package core

import (
	"fmt"
	"strings"
	"time"

	"cloudbench/internal/sim"
	"cloudbench/internal/stats"
	"cloudbench/internal/ycsb"
)

// ReadRepairAblation is A1's report: Cassandra's mean micro read latency
// by replication factor, one series with read repair on and one with it
// off.
type ReadRepairAblation struct{ *stats.Figure }

// SyncReplAblation is A2's report: HBase's median micro update latency by
// replication factor, one series per replication mode.
type SyncReplAblation struct{ *stats.Figure }

// ClientThreadsAblation is A3's report: HBase's mean intended latency by
// client thread count at a fixed offered load.
type ClientThreadsAblation struct{ *stats.Figure }

// Tables renders each ablation's figure as its series table.
func (a ReadRepairAblation) Tables() []*stats.Table    { return []*stats.Table{a.Table()} }
func (a SyncReplAblation) Tables() []*stats.Table      { return []*stats.Table{a.Table()} }
func (a ClientThreadsAblation) Tables() []*stats.Table { return []*stats.Table{a.Table()} }

// AblationReadRepair isolates the cause of the paper's F4 finding (§4.1:
// Cassandra read latency rising beyond RF 3): it reruns the micro
// update+read pipeline at each replication factor with read repair on and
// off, and plots the mean, F4's statistic.
func AblationReadRepair(o Options) (ReadRepairAblation, error) {
	a := ReadRepairAblation{stats.NewFigure("Ablation A1 — Cassandra micro read latency vs RF, read repair on/off",
		"replication-factor", "mean read latency (µs)")}
	on := cassandraAt(0, levels()[0])
	off := on
	off.noReadRepair = true
	return a, microAblation(o, "ablation-a1", a.Figure, "read", func(m MicroResult) time.Duration { return m.Mean },
		abMode{"read-repair-on", on}, abMode{"read-repair-off", off})
}

// Findings judges F4′: with read repair off, most of the mean read growth
// F4 measures goes away.
func (a ReadRepairAblation) Findings() []Finding {
	onLo, onHi := ends(a.Figure, "read-repair-on")
	offLo, offHi := ends(a.Figure, "read-repair-off")
	on, off := stats.Ratio(onHi, onLo), stats.Ratio(offHi, offLo)
	effect := stats.Ratio(on, off)
	return []Finding{{
		ID:     "F4′",
		Claim:  "read repair causes Cassandra's read latency growth with replication factor",
		Pass:   effect > 1.25,
		Detail: fmt.Sprintf("mean read %s: repair on=%.2f off=%.2f, on/off=%.2f (threshold 1.25)", rfSpan(a.Figure), on, off, effect),
	}}
}

// AblationHBaseSyncRepl isolates the cause of F2 (§4.1: HBase write
// latency flat in RF because replication is in-memory): it reruns the
// micro update test with the paper-described in-memory replication versus
// synchronous disk replication, and plots the median, F2's statistic.
func AblationHBaseSyncRepl(o Options) (SyncReplAblation, error) {
	a := SyncReplAblation{stats.NewFigure("Ablation A2 — HBase micro update latency vs RF, in-memory vs sync replication",
		"replication-factor", "median update latency (µs)")}
	mem := hbaseAt(0)
	sync := mem
	sync.syncRepl = true
	return a, microAblation(o, "ablation-a2", a.Figure, "update", func(m MicroResult) time.Duration { return m.P50 },
		abMode{"in-memory-replication", mem}, abMode{"synchronous-replication", sync})
}

// Findings judges F2′: synchronous replication makes the median update
// latency grow with RF where in-memory replication keeps it flat, and is
// slower outright at the top RF.
func (a SyncReplAblation) Findings() []Finding {
	memLo, memHi := ends(a.Figure, "in-memory-replication")
	syncLo, syncHi := ends(a.Figure, "synchronous-replication")
	mem, sync := stats.Ratio(memHi, memLo), stats.Ratio(syncHi, syncLo)
	effect := stats.Ratio(sync, mem)
	return []Finding{{
		ID:    "F2′",
		Claim: "in-memory replication is what keeps HBase's update latency flat in replication factor",
		Pass:  effect > 1.25 && syncHi > memHi,
		Detail: fmt.Sprintf("median update %s: sync=%.2f in-memory=%.2f, sync/in-memory=%.2f (threshold 1.25); top rf sync=%.0fµs in-memory=%.0fµs",
			rfSpan(a.Figure), sync, mem, effect, syncHi, memHi),
	}}
}

// ends returns series name's first and last points, or 0, 0 when the
// series is missing or empty.
func ends(f *stats.Figure, name string) (first, last float64) {
	if s := f.Get(name); s != nil && len(s.Y) > 0 {
		return s.Y[0], s.Y[len(s.Y)-1]
	}
	return 0, 0
}

// rfSpan renders the replication factors a growth ratio spans, "rf6/rf1".
func rfSpan(f *stats.Figure) string {
	if len(f.Series) == 0 || len(f.Series[0].X) == 0 {
		return "no rf"
	}
	x := f.Series[0].X
	return fmt.Sprintf("rf%g/rf%g", x[len(x)-1], x[0])
}

// abMode is one series of a micro ablation: a name and the backend, with
// the ablated knob turned or not, that every cell of the series deploys
// at its own replication factor.
type abMode struct {
	name string
	b    backend
}

// abCell is one (mode, replication factor) point of an ablation sweep.
type abCell struct {
	abMode
	rf int
}

func (c abCell) String() string { return fmt.Sprintf("%s rf=%d", c.name, c.rf) }

// microAblation reruns a Fig. 1 round at every replication factor under
// each mode and plots stat of op's latency, one series per mode, into f.
// Cells are mode-major: outer mode loop, inner RF loop.
func microAblation(o Options, name string, f *stats.Figure, op string,
	stat func(MicroResult) time.Duration, modes ...abMode) error {
	var cells []abCell
	for _, mode := range modes {
		for _, rf := range o.ReplicationFactors {
			cells = append(cells, abCell{mode, rf})
		}
	}
	vals, err := sweep(o, name, cells, func(o Options, c abCell) ([]float64, error) {
		b := c.b
		b.rf = c.rf
		res, err := runFig1Cell(o, b)
		var v time.Duration
		for _, m := range res {
			if m.Op == op {
				v = stat(m)
			}
		}
		return []float64{float64(v.Microseconds())}, err
	})
	if err != nil {
		return err
	}
	for mi, mode := range modes {
		s := f.AddSeries(mode.name)
		for ri, rf := range o.ReplicationFactors {
			s.Add(float64(rf), vals[mi*len(o.ReplicationFactors)+ri])
		}
	}
	return nil
}

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
