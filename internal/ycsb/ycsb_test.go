package ycsb

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"cloudbench/internal/kv"
	"cloudbench/internal/sim"
)

func TestUniformBounds(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	u := Uniform{Lo: 5, Hi: 9}
	for i := 0; i < 1000; i++ {
		v := u.Next(rng)
		if v < 5 || v > 9 {
			t.Fatalf("out of range: %d", v)
		}
	}
}

func TestZipfianSkewAndBounds(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	z := NewZipfian(1000)
	counts := map[int64]int{}
	const draws = 100000
	for i := 0; i < draws; i++ {
		v := z.Next(rng)
		if v < 0 || v >= 1000 {
			t.Fatalf("out of range: %d", v)
		}
		counts[v]++
	}
	// Item 0 should be by far the most popular (~ 1/zetan ≈ 13%).
	if counts[0] < draws/20 {
		t.Fatalf("item 0 drawn %d times of %d; zipfian not skewed", counts[0], draws)
	}
	if counts[0] < counts[500]*10 {
		t.Fatalf("head %d vs mid %d: insufficient skew", counts[0], counts[500])
	}
}

func TestZipfianIncrementalNMatchesStatic(t *testing.T) {
	// Growing n incrementally must agree with a freshly built generator.
	rngA := rand.New(rand.NewSource(3))
	rngB := rand.New(rand.NewSource(3))
	grown := NewZipfian(100)
	grown.NextN(rngA, 500) // extends zeta incrementally
	fresh := NewZipfian(500)
	if math.Abs(grown.zetan-fresh.zetan) > 1e-9 {
		t.Fatalf("zetan drift: %v vs %v", grown.zetan, fresh.zetan)
	}
	_ = rngB
}

func TestScrambledZipfianSpreads(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	s := NewScrambledZipfian(10000)
	counts := map[int64]int{}
	for i := 0; i < 50000; i++ {
		v := s.Next(rng)
		if v < 0 || v >= 10000 {
			t.Fatalf("out of range: %d", v)
		}
		counts[v]++
	}
	// The hottest item should NOT be item 0 (that is the whole point of
	// scrambling) — find the mode.
	mode, best := int64(-1), 0
	for v, c := range counts {
		if c > best {
			mode, best = v, c
		}
	}
	if mode == 0 {
		t.Fatal("scrambled zipfian left the hot key at 0")
	}
	if best < 1000 {
		t.Fatalf("mode only drawn %d times; skew lost in scrambling", best)
	}
}

func TestLatestFavorsRecent(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	c := NewAcknowledgedCounter(1000)
	for i := 0; i < 500; i++ {
		c.Ack(c.Next(nil))
	}
	l := NewLatest(c)
	last := c.LastAcked()
	recent := 0
	const draws = 20000
	for i := 0; i < draws; i++ {
		v := l.Next(rng)
		if v < 0 || v > last {
			t.Fatalf("out of range: %d (last %d)", v, last)
		}
		if last-v < 100 {
			recent++
		}
	}
	// The newest 100 of ~1500 items (6.7%) should get far more than 6.7%.
	if float64(recent)/draws < 0.3 {
		t.Fatalf("recent fraction = %.3f; latest not skewed to new items", float64(recent)/draws)
	}
}

func TestDiscreteProportions(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var d Discrete
	d.Add(0.95, 1)
	d.Add(0.05, 2)
	d.Add(0, 3) // zero weight never drawn
	counts := map[int64]int{}
	const draws = 20000
	for i := 0; i < draws; i++ {
		counts[d.Next(rng)]++
	}
	if counts[3] != 0 {
		t.Fatal("zero-weight value drawn")
	}
	frac := float64(counts[1]) / draws
	if frac < 0.93 || frac > 0.97 {
		t.Fatalf("proportion = %.3f, want ~0.95", frac)
	}
}

func TestCounterSequential(t *testing.T) {
	c := &Counter{next: 10}
	if c.Next(nil) != 10 || c.Next(nil) != 11 || c.next != 12 {
		t.Fatal("counter broken")
	}
}

func TestKeyForBijective(t *testing.T) {
	s := Spec{KeyPad: 6}
	f := func(a, b uint32) bool {
		x, y := int64(a%1000000), int64(b%1000000)
		if x == y {
			return true
		}
		return s.KeyFor(x) != s.KeyFor(y)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 5000}); err != nil {
		t.Fatal(err)
	}
}

func TestKeyForFixedWidthSortable(t *testing.T) {
	s := Spec{KeyPad: 8}
	k1 := s.KeyFor(123)
	if len(k1) != len("user")+8 {
		t.Fatalf("key %q has wrong width", k1)
	}
}

// TestKeyFormatMatchesSprintf pins the hand-rolled key formatter to the
// fmt.Sprintf form it replaced, byte for byte, across pad widths and the
// values where the widths change — and KeyFor/SplitPoints through it.
func TestKeyFormatMatchesSprintf(t *testing.T) {
	values := []int64{0, 1, 9, 10, 99, 100, 12345, 999999, 1000000, 9999999999, 10000000000,
		math.MaxInt64, -1, -42, -1000000, math.MinInt64}
	for _, pad := range []int{0, 1, 2, 4, 6, 8, 10, 12, 18, 19, 20, 24, 40} {
		for _, v := range values {
			if got, want := formatKey(pad, v), kv.Key(fmt.Sprintf("user%0*d", pad, v)); got != want {
				t.Errorf("formatKey(%d, %d) = %q, want %q", pad, v, got, want)
			}
		}
		if pad == 0 || pad > 18 {
			continue // keySpace overflows int64 past 18 digits
		}
		s := Spec{KeyPad: pad}
		space := s.keySpace()
		for _, n := range []int64{0, 1, 7, space - 1, space, space + 3, 123456789} {
			want := kv.Key(fmt.Sprintf("user%0*d", pad, (n%space)*keyMultiplier%space))
			if got := s.KeyFor(n); got != want {
				t.Errorf("KeyPad %d: KeyFor(%d) = %q, want %q", pad, n, got, want)
			}
		}
		for i, got := range s.SplitPoints(7) {
			if want := kv.Key(fmt.Sprintf("user%0*d", pad, space/7*int64(i+1))); got != want {
				t.Errorf("KeyPad %d: split %d = %q, want %q", pad, i, got, want)
			}
		}
	}
	s := Spec{KeyPad: 10}
	n := int64(0)
	if allocs := testing.AllocsPerRun(1000, func() { n++; _ = s.KeyFor(n) }); allocs > 1 {
		t.Errorf("KeyFor: %.1f allocs/op, want <= 1", allocs)
	}
}

func TestSplitPointsOrdered(t *testing.T) {
	s := Spec{KeyPad: 8}
	pts := s.SplitPoints(16)
	if len(pts) != 15 {
		t.Fatalf("points = %d", len(pts))
	}
	for i := 1; i < len(pts); i++ {
		if pts[i-1] >= pts[i] {
			t.Fatalf("splits not increasing: %v", pts)
		}
	}
}

func TestWorkloadOpMix(t *testing.T) {
	w := NewWorkload(ReadMostly(10000))
	rng := rand.New(rand.NewSource(8))
	counts := map[OpType]int{}
	const draws = 20000
	for i := 0; i < draws; i++ {
		counts[w.NextOp(rng).Type]++
	}
	readFrac := float64(counts[OpRead]) / draws
	if readFrac < 0.93 || readFrac > 0.97 {
		t.Fatalf("read fraction = %.3f, want ~0.95", readFrac)
	}
	if counts[OpScan] != 0 || counts[OpInsert] != 0 {
		t.Fatalf("unexpected ops: %v", counts)
	}
}

func TestWorkloadInsertAdvancesCounterOnAck(t *testing.T) {
	w := NewWorkload(ReadLatest(1000))
	rng := rand.New(rand.NewSource(9))
	before := w.Inserted()
	var inserts int64
	var pendingOp Op
	for i := 0; i < 1000; i++ {
		op := w.NextOp(rng)
		if op.Type != OpInsert {
			continue
		}
		inserts++
		if inserts == 1 {
			pendingOp = op // hold the first insert unacknowledged
			continue
		}
		w.Ack(op)
	}
	if inserts < 100 {
		t.Fatalf("inserts = %d, want ~20%%", inserts)
	}
	// The unacknowledged first insert gates the contiguous limit.
	if w.Inserted() != before {
		t.Fatalf("Inserted = %d, want gated at %d", w.Inserted(), before)
	}
	w.Ack(pendingOp)
	if w.Inserted() != before+inserts {
		t.Fatalf("Inserted = %d after ack, want %d", w.Inserted(), before+inserts)
	}
}

func TestAcknowledgedCounterWindow(t *testing.T) {
	c := NewAcknowledgedCounter(0)
	a, b, d := c.Next(nil), c.Next(nil), c.Next(nil)
	c.Ack(b)
	c.Ack(d)
	if c.LastAcked() != -1 {
		t.Fatalf("limit = %d, want -1 (gap at 0)", c.LastAcked())
	}
	c.Ack(a)
	if c.LastAcked() != 2 {
		t.Fatalf("limit = %d, want 2 after gap closes", c.LastAcked())
	}
	c.Ack(a) // double-ack is a no-op
	if c.LastAcked() != 2 {
		t.Fatal("double ack moved the limit")
	}
}

func TestWorkloadScanLengths(t *testing.T) {
	w := NewWorkload(ScanShortRanges(1000))
	rng := rand.New(rand.NewSource(10))
	for i := 0; i < 2000; i++ {
		op := w.NextOp(rng)
		if op.Type != OpScan {
			continue
		}
		if op.ScanLen < 1 || op.ScanLen > w.Spec.MaxScanLength {
			t.Fatalf("scan length %d out of [1,%d]", op.ScanLen, w.Spec.MaxScanLength)
		}
	}
}

func TestWorkloadUpdateWritesOneField(t *testing.T) {
	w := NewWorkload(ReadUpdate(1000))
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 500; i++ {
		op := w.NextOp(rng)
		if op.Type == OpUpdate && len(op.Record) != 1 {
			t.Fatalf("update wrote %d fields, want 1", len(op.Record))
		}
	}
}

// TestNextOpAllocsNothingOnLoadedKeys: the driver hands out the key strings
// and write records it has built — a loaded record's key once per Workload,
// one record per set of fields written — so a generated read or update of a
// loaded key costs the host nothing, and what it hands out is what it used
// to build per operation.
func TestNextOpAllocsNothingOnLoadedKeys(t *testing.T) {
	spec := ReadUpdate(500)
	w := NewWorkload(spec)
	rng := rand.New(rand.NewSource(12))
	for n := int64(0); n < spec.RecordCount; n++ {
		op := w.LoadOp(rng, n)
		if op.Key != spec.KeyFor(n) || len(op.Record) != spec.FieldCount || op.Record["field0"].Bytes() != spec.FieldLength {
			t.Fatalf("load op %d = %+v", n, op)
		}
	}
	one := map[string]bool{}
	check := func() {
		op := w.NextOp(rng)
		if op.Type != OpUpdate {
			return
		}
		for f, v := range op.Record {
			one[f] = true
			if len(op.Record) != 1 || v.Bytes() != spec.FieldLength {
				t.Fatalf("update record %v", op.Record)
			}
		}
	}
	if allocs := testing.AllocsPerRun(2000, check); allocs != 0 {
		t.Errorf("NextOp over loaded keys: %.2f allocs/op, want 0", allocs)
	}
	if len(one) != spec.FieldCount {
		t.Errorf("updates wrote %d distinct fields, want all %d", len(one), spec.FieldCount)
	}
	// Past the loaded records — a run-phase insert, a key number beyond
	// the key space — the key is Spec.KeyFor's, built on the spot.
	for _, n := range []int64{-1, spec.RecordCount, spec.RecordCount + 7, spec.keySpace() + 3} {
		if got := w.keyFor(n); got != spec.KeyFor(n) {
			t.Errorf("keyFor(%d) = %q, want %q", n, got, spec.KeyFor(n))
		}
	}
}

func TestTable1PresetRatios(t *testing.T) {
	cases := []struct {
		spec  Spec
		read  float64
		other float64
	}{
		{ReadMostly(1), 0.95, 0.05},
		{ReadLatest(1), 0.80, 0.20},
		{ReadUpdate(1), 0.50, 0.50},
		{ReadModifyWrite(1), 0.50, 0.50},
		{ScanShortRanges(1), 0, 1.0},
	}
	for _, c := range cases {
		total := c.spec.ReadProportion + c.spec.UpdateProportion +
			c.spec.InsertProportion + c.spec.ScanProportion + c.spec.RMWProportion
		if math.Abs(total-1) > 1e-9 {
			t.Errorf("%s proportions sum to %v", c.spec.Name, total)
		}
		if c.spec.ReadProportion != c.read {
			t.Errorf("%s read = %v, want %v", c.spec.Name, c.spec.ReadProportion, c.read)
		}
	}
	if ReadMostly(1).RequestDistribution != DistZipfian ||
		ReadLatest(1).RequestDistribution != DistLatest {
		t.Error("Table 1 distributions wrong")
	}
}

// fakeClient is an in-memory kv.Client with a fixed service latency, for
// exercising the runner without a database.
type fakeClient struct {
	store   map[kv.Key]kv.Record
	latency time.Duration
	fail    bool
}

func newFake(latency time.Duration) *fakeClient {
	return &fakeClient{store: map[kv.Key]kv.Record{}, latency: latency}
}

func (f *fakeClient) Read(p *sim.Proc, key kv.Key, fields []string) (kv.Record, error) {
	p.Sleep(f.latency)
	if f.fail {
		return nil, kv.ErrUnavailable
	}
	r, ok := f.store[key]
	if !ok {
		return nil, kv.ErrNotFound
	}
	return r, nil
}

func (f *fakeClient) Insert(p *sim.Proc, key kv.Key, rec kv.Record) error {
	p.Sleep(f.latency)
	if f.fail {
		return kv.ErrUnavailable
	}
	f.store[key] = rec
	return nil
}

func (f *fakeClient) Update(p *sim.Proc, key kv.Key, rec kv.Record) error {
	return f.Insert(p, key, rec)
}

func (f *fakeClient) Delete(p *sim.Proc, key kv.Key) error {
	p.Sleep(f.latency)
	delete(f.store, key)
	return nil
}

func (f *fakeClient) Scan(p *sim.Proc, start kv.Key, limit int, fields []string) ([]kv.KV, error) {
	p.Sleep(f.latency)
	return nil, nil
}

func TestLoadInsertsAllRecords(t *testing.T) {
	k := sim.NewKernel(1)
	fake := newFake(time.Millisecond)
	w := NewWorkload(ReadMostly(500))
	k.Spawn("driver", func(p *sim.Proc) {
		errs := Load(p, func() kv.Client { return fake }, w, 8, 0, 500)
		if errs != 0 {
			t.Errorf("errors = %d", errs)
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if len(fake.store) != 500 {
		t.Fatalf("store = %d records", len(fake.store))
	}
}

func TestRunUnthrottledClosedLoop(t *testing.T) {
	k := sim.NewKernel(2)
	fake := newFake(time.Millisecond)
	w := NewWorkload(ReadMostly(100))
	var res Result
	k.Spawn("driver", func(p *sim.Proc) {
		Load(p, func() kv.Client { return fake }, w, 4, 0, 100)
		res = Run(p, func() kv.Client { return fake }, w, RunConfig{
			Threads: 4, Ops: 1000,
		})
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if res.MeasuredOps != 1000 {
		t.Fatalf("measured = %d", res.MeasuredOps)
	}
	// 4 threads, 1ms service (update path has same latency): ~4000 ops/s.
	if res.Throughput < 3000 || res.Throughput > 5000 {
		t.Fatalf("throughput = %.0f, want ~4000", res.Throughput)
	}
	if res.Errors != 0 {
		t.Fatalf("errors = %d", res.Errors)
	}
}

func TestRunThrottledHitsTarget(t *testing.T) {
	k := sim.NewKernel(3)
	fake := newFake(time.Millisecond)
	w := NewWorkload(ReadMostly(100))
	var res Result
	k.Spawn("driver", func(p *sim.Proc) {
		Load(p, func() kv.Client { return fake }, w, 4, 0, 100)
		res = Run(p, func() kv.Client { return fake }, w, RunConfig{
			Threads: 8, Ops: 2000, TargetThroughput: 500,
		})
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if res.Throughput < 450 || res.Throughput > 550 {
		t.Fatalf("throughput = %.0f, want ~500", res.Throughput)
	}
}

func TestRunWarmupExcluded(t *testing.T) {
	k := sim.NewKernel(4)
	fake := newFake(time.Millisecond)
	w := NewWorkload(ReadMostly(100))
	var res Result
	k.Spawn("driver", func(p *sim.Proc) {
		Load(p, func() kv.Client { return fake }, w, 4, 0, 100)
		res = Run(p, func() kv.Client { return fake }, w, RunConfig{
			Threads: 4, Ops: 1000, WarmupFraction: 0.2,
		})
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if res.MeasuredOps < 750 || res.MeasuredOps > 810 {
		t.Fatalf("measured = %d, want ~800", res.MeasuredOps)
	}
}

func TestRunCountsErrors(t *testing.T) {
	k := sim.NewKernel(5)
	fake := newFake(time.Millisecond)
	w := NewWorkload(ReadUpdate(100))
	var res Result
	k.Spawn("driver", func(p *sim.Proc) {
		Load(p, func() kv.Client { return fake }, w, 2, 0, 100)
		fake.fail = true
		res = Run(p, func() kv.Client { return fake }, w, RunConfig{Threads: 2, Ops: 200})
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if res.Errors == 0 {
		t.Fatal("expected errors")
	}
}

func TestRunRecordsPerOpHistograms(t *testing.T) {
	k := sim.NewKernel(6)
	fake := newFake(time.Millisecond)
	w := NewWorkload(ReadUpdate(100))
	var res Result
	k.Spawn("driver", func(p *sim.Proc) {
		Load(p, func() kv.Client { return fake }, w, 2, 0, 100)
		res = Run(p, func() kv.Client { return fake }, w, RunConfig{Threads: 2, Ops: 500})
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if res.PerOp[OpRead].Count() == 0 || res.PerOp[OpUpdate].Count() == 0 {
		t.Fatal("per-op histograms empty")
	}
	if res.PerOp[OpRead].Count()+res.PerOp[OpUpdate].Count() != res.Overall.Count() {
		t.Fatal("per-op counts do not sum to overall")
	}
	// RMW latency should be ~2× single-op latency in the RMW workload.
	w2 := NewWorkload(ReadModifyWrite(100))
	var res2 Result
	k2 := sim.NewKernel(7)
	k2.Spawn("driver", func(p *sim.Proc) {
		Load(p, func() kv.Client { return fake }, w2, 2, 0, 100)
		res2 = Run(p, func() kv.Client { return fake }, w2, RunConfig{Threads: 1, Ops: 300})
	})
	if err := k2.Run(); err != nil {
		t.Fatal(err)
	}
	rmw := res2.PerOp[OpReadModifyWrite].Mean()
	read := res2.PerOp[OpRead].Mean()
	if rmw < read*3/2 {
		t.Fatalf("rmw mean %v not ~2x read mean %v", rmw, read)
	}
}
