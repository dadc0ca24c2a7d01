package trace

import (
	"bytes"
	"encoding/json"
	"reflect"
	"testing"
	"time"

	"cloudbench/internal/sim"
)

// TestNilTracerSafe checks every hook method is a no-op on a nil tracer —
// the contract the nil-gated call sites rely on.
func TestNilTracerSafe(t *testing.T) {
	var tr *Tracer
	k := sim.NewKernel(1)
	k.Spawn("op", func(p *sim.Proc) {
		tr.BeginMeasure(0)
		tr.StartOp(p, ClassRead)
		tr.Mark(p, PhaseDigest, 0)
		tr.Phase(p, PhaseStorage, 0, p.Now())
		tr.Interval(p, PhaseFanout, 0, 0, p.Now())
		prev := tr.Mute(p)
		tr.Unmute(p, prev)
		tr.Detach(p)
		tr.EndOp(p)
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
}

// scenario drives a small fixed trace: one read op that sleeps 10ms total
// with a 4ms storage phase recorded by a spawned "replica" process, plus
// one detached background span.
func scenario(tr *Tracer) {
	k := sim.NewKernel(7)
	tr.BeginMeasure(0)
	k.Spawn("client", func(p *sim.Proc) {
		tr.StartOp(p, ClassRead)
		p.Sleep(2 * time.Millisecond)
		k.Spawn("replica", func(q *sim.Proc) {
			t0 := q.Now()
			q.Sleep(4 * time.Millisecond)
			tr.Phase(q, PhaseStorage, 3, t0)
		})
		p.Sleep(8 * time.Millisecond)
		tr.EndOp(p)
	})
	k.Spawn("daemon", func(p *sim.Proc) {
		tr.Detach(p)
		t0 := p.Now()
		p.Sleep(time.Millisecond)
		tr.Phase(p, PhaseHDFS, 5, t0)
	})
	if err := k.Run(); err != nil {
		panic(err)
	}
}

func TestTracerAggregatesClassesAndShares(t *testing.T) {
	tr := New()
	scenario(tr)
	r := tr.Report()

	read := r.Class("read")
	if read == nil || read.Ops != 1 || read.Total != 10*time.Millisecond {
		t.Fatalf("read class = %+v", read)
	}
	st := read.Phase("storage")
	if st == nil || st.Count != 1 || st.Total != 4*time.Millisecond {
		t.Fatalf("storage phase = %+v", st)
	}
	if st.Share < 0.39 || st.Share > 0.41 {
		t.Fatalf("storage share = %v, want 0.4", st.Share)
	}
	bg := r.Class("background")
	if bg == nil || bg.Ops != 0 || bg.Phase("hdfs") == nil {
		t.Fatalf("background class = %+v", bg)
	}
	if bg.Phase("hdfs").Share != 0 {
		t.Fatal("background shares must be 0 (no root denominator)")
	}
	if r.Class("update") != nil || read.Phase("fanout") != nil {
		t.Fatal("classes/phases with no spans must be omitted")
	}
}

func TestMuteSuppressesInnerSpans(t *testing.T) {
	tr := New()
	k := sim.NewKernel(3)
	tr.BeginMeasure(0)
	k.Spawn("client", func(p *sim.Proc) {
		tr.StartOp(p, ClassRead)
		t0 := p.Now()
		prev := tr.Mute(p)
		// Inner work: both direct spans and spans from spawned children
		// must be swallowed while muted.
		tr.Phase(p, PhaseFanout, 1, t0)
		k.Spawn("repair-leg", func(q *sim.Proc) {
			u0 := q.Now()
			q.Sleep(time.Millisecond)
			tr.Phase(q, PhaseStorage, 2, u0)
		})
		p.Sleep(2 * time.Millisecond)
		tr.Unmute(p, prev)
		tr.Phase(p, PhaseReadRepair, 1, t0)
		tr.EndOp(p)
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	read := tr.Report().Class("read")
	if read.Phase("fanout") != nil || read.Phase("storage") != nil {
		t.Fatalf("muted spans leaked: %+v", read.Phases)
	}
	rr := read.Phase("read-repair")
	if rr == nil || rr.Count != 1 || rr.Total != 2*time.Millisecond {
		t.Fatalf("composite repair span = %+v", rr)
	}
}

func TestMeasureWindowGatesWarmup(t *testing.T) {
	tr := New()
	k := sim.NewKernel(5)
	tr.BeginMeasure(sim.Time(5 * time.Millisecond))
	op := func(p *sim.Proc) {
		tr.StartOp(p, ClassUpdate)
		t0 := p.Now()
		p.Sleep(time.Millisecond)
		tr.Phase(p, PhaseWAL, 1, t0)
		tr.EndOp(p)
	}
	k.Spawn("client", func(p *sim.Proc) {
		op(p) // starts at t=0: warmup, excluded
		p.Sleep(10 * time.Millisecond)
		op(p) // inside the window
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	upd := tr.Report().Class("update")
	if upd == nil || upd.Ops != 1 || upd.Phase("wal").Count != 1 {
		t.Fatalf("warmup not excluded: %+v", upd)
	}
}

func TestSpanRetentionAndChromeExport(t *testing.T) {
	tr := New()
	tr.KeepSpans(16)
	scenario(tr)
	spans := tr.Spans()
	if len(spans) != 3 { // storage phase, hdfs phase, read root
		t.Fatalf("retained %d spans: %+v", len(spans), spans)
	}
	var root, storage Span
	for _, s := range spans {
		if s.Root {
			root = s
		}
		if !s.Root && s.Phase == PhaseStorage {
			storage = s
		}
	}
	if root.ID == 0 || storage.Parent != root.ID {
		t.Fatalf("parent linkage broken: root=%+v storage=%+v", root, storage)
	}
	if storage.Node != 3 || storage.End.Sub(storage.Start) != 4*time.Millisecond {
		t.Fatalf("storage span = %+v", storage)
	}

	var buf bytes.Buffer
	if err := WriteChrome(&buf, spans); err != nil {
		t.Fatal(err)
	}
	var decoded struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &decoded); err != nil {
		t.Fatalf("chrome output is not valid JSON: %v\n%s", err, buf.String())
	}
	if len(decoded.TraceEvents) != 3 {
		t.Fatalf("chrome events = %d", len(decoded.TraceEvents))
	}
	names := map[string]bool{}
	for _, ev := range decoded.TraceEvents {
		names[ev["name"].(string)] = true
		if ev["ph"] != "X" {
			t.Fatalf("event phase = %v", ev["ph"])
		}
	}
	if !names["read"] || !names["storage"] || !names["hdfs"] {
		t.Fatalf("event names = %v", names)
	}

	small := New()
	small.KeepSpans(1)
	scenario(small)
	if len(small.Spans()) != 1 || small.Dropped() != 2 {
		t.Fatalf("retention bound: kept %d dropped %d", len(small.Spans()), small.Dropped())
	}
}

// TestDeterministicAcrossRetention checks the two determinism properties
// the tracebreak experiment depends on: identical runs produce identical
// span IDs, and enabling retention does not perturb aggregates.
func TestDeterministicAcrossRetention(t *testing.T) {
	a, b := New(), New()
	a.KeepSpans(64)
	b.KeepSpans(64)
	scenario(a)
	scenario(b)
	if !reflect.DeepEqual(a.Spans(), b.Spans()) {
		t.Fatalf("span sequences differ:\n%+v\n%+v", a.Spans(), b.Spans())
	}
	plain := New()
	scenario(plain)
	if !reflect.DeepEqual(plain.Report(), a.Report()) {
		t.Fatal("retention changed aggregates")
	}
}

// TestDisabledTracerHooksZeroAlloc pins the disabled-path cost of the
// nil-gated hook pattern used on the YCSB and database request paths.
func TestDisabledTracerHooksZeroAlloc(t *testing.T) {
	var tr *Tracer
	k := sim.NewKernel(9)
	k.Spawn("driver", func(p *sim.Proc) {
		allocs := testing.AllocsPerRun(1000, func() {
			var t0 sim.Time
			if tr != nil {
				tr.StartOp(p, ClassRead)
				t0 = p.Now()
			}
			if tr != nil {
				tr.Phase(p, PhaseStorage, 1, t0)
				tr.EndOp(p)
			}
		})
		if allocs != 0 {
			t.Errorf("disabled tracer hook pattern allocates %.1f/op", allocs)
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
}
