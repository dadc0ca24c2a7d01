package core

import (
	"reflect"
	"testing"

	"cloudbench/internal/consistency"
	"cloudbench/internal/sim"
	"cloudbench/internal/trace"
	"cloudbench/internal/ycsb"
)

// TestInstrumentsDoNotPerturbRun: attaching the staleness oracle, the
// tracer or both to a cell leaves its result what it is without them. The
// instruments observe the run; one draw from a client thread's random
// stream would shift every key that thread chooses after it.
func TestInstrumentsDoNotPerturbRun(t *testing.T) {
	o := smokeOptions()
	o.Threads = 24
	spec := ycsb.ReadUpdate(o.StressRecords)
	b := cassandraAt(3, levels()[0])
	b.noGC = true
	run := func(oracle *consistency.Oracle, tr *trace.Tracer) ycsb.Result {
		d := deploy(o, b, spec)
		d.attach(oracle, tr)
		var res ycsb.Result
		if err := d.run(o.Threads, func(p *sim.Proc) { res = d.phase(p, spec, o.stressRun(0)) }); err != nil {
			t.Fatal(err)
		}
		res.Consistency = nil // the oracle's own report
		return res
	}
	var want ycsb.Result
	for i, c := range []struct {
		name   string
		oracle *consistency.Oracle
		tracer *trace.Tracer
	}{
		{"none", nil, nil},
		{"oracle", consistency.New(), nil},
		{"tracer", nil, trace.New()},
		{"both", consistency.New(), trace.New()},
	} {
		got := run(c.oracle, c.tracer)
		if i == 0 {
			want = got
			continue
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s attached: %d ops at %.1f ops/s, mean %v; none attached: %d ops at %.1f ops/s, mean %v",
				c.name, got.MeasuredOps, got.Throughput, got.MeanLatency(),
				want.MeasuredOps, want.Throughput, want.MeanLatency())
		}
	}
}
