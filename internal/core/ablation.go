package core

import (
	"fmt"

	"cloudbench/internal/sim"
	"cloudbench/internal/stats"
	"cloudbench/internal/ycsb"
)

// AblationReadRepair isolates the cause of the paper's F4 finding (§4.1:
// Cassandra read latency rising beyond RF 3): it reruns the micro
// update+read pipeline at each replication factor with read repair on and
// off. The "off" series should flatten.
func AblationReadRepair(o Options) (*stats.Figure, error) {
	f := stats.NewFigure("Ablation A1 — Cassandra micro read latency vs RF, read repair on/off",
		"replication-factor", "mean read latency (µs)")
	one := func(rf int) backend { return cassandraAt(rf, levels()[0]) }
	off := o
	off.ReadRepairChance = 0
	return microAblation(o, "ablation-a1", f, one, "read",
		abMode{"read-repair-on", o}, abMode{"read-repair-off", off})
}

// AblationHBaseSyncRepl isolates the cause of F2 (§4.1: HBase write
// latency flat in RF because replication is in-memory): it reruns the
// micro update test with the paper-described in-memory replication versus
// synchronous disk replication. The sync series should climb with RF.
func AblationHBaseSyncRepl(o Options) (*stats.Figure, error) {
	f := stats.NewFigure("Ablation A2 — HBase micro update latency vs RF, in-memory vs sync replication",
		"replication-factor", "mean update latency (µs)")
	mem, sync := o, o
	mem.MemReplication, sync.MemReplication = true, false
	return microAblation(o, "ablation-a2", f, hbaseAt, "update",
		abMode{"in-memory-replication", mem}, abMode{"synchronous-replication", sync})
}

// abMode is one series of a micro ablation: a name and the Options with
// the ablated knob turned.
type abMode struct {
	name string
	o    Options
}

// abCell is one (mode, replication factor) point of an ablation sweep.
type abCell struct {
	abMode
	rf int
}

func (c abCell) String() string { return fmt.Sprintf("%s rf=%d", c.name, c.rf) }

// microAblation reruns one database's Fig. 1 round at every replication
// factor under each mode and plots op's median latency, one series per
// mode, into f. Cells are mode-major: outer mode loop, inner RF loop.
func microAblation(o Options, name string, f *stats.Figure, at func(rf int) backend, op string, modes ...abMode) (*stats.Figure, error) {
	var cells []abCell
	for _, mode := range modes {
		for _, rf := range o.ReplicationFactors {
			cells = append(cells, abCell{mode, rf})
		}
	}
	vals, err := sweep(o, name, cells, func(_ Options, c abCell) ([]float64, error) {
		b := at(c.rf)
		res, err := runFig1Cell(c.o, b)
		return []float64{float64(res.get(b.db, op, b.rf).Microseconds())}, err
	})
	if err != nil {
		return nil, err
	}
	for mi, mode := range modes {
		s := f.AddSeries(mode.name)
		for ri, rf := range o.ReplicationFactors {
			s.Add(float64(rf), vals[mi*len(o.ReplicationFactors)+ri])
		}
	}
	return f, nil
}

// AblationClientThreads reproduces the §3.1 methodology warning: with a
// fixed offered load, too few client threads inflate measured latency for
// non-database reasons (requests queue in the client). It sweeps the
// thread count at a constant target throughput against HBase.
func AblationClientThreads(o Options, threadCounts []int, target float64) (*stats.Figure, error) {
	if len(threadCounts) == 0 {
		threadCounts = []int{1, 2, 4, 8, 16, 32}
	}
	f := stats.NewFigure(
		fmt.Sprintf("Ablation A3 — intended latency vs client threads at %d ops/s offered", int(target)),
		"client-threads", "mean intended latency (µs)")
	s := f.AddSeries("HBase read-mostly")
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
		return nil, err
	}
	for i, threads := range threadCounts {
		s.Add(float64(threads), vals[i])
	}
	return f, nil
}
