package sim

import (
	"container/heap"
	"fmt"
	"testing"
)

// --- differential scheduler test -------------------------------------------
//
// A reference scheduler (the old binary heap, ordered by (t, seq)) and the
// real kernel execute an identical randomized event script; the observed
// (id, fire-time) sequences must match exactly. The script interpreter
// derives every decision from a splitmix64 stream keyed by event id, so
// both sides make identical choices without sharing state.

type refEvent struct {
	t        Time
	seq      uint64
	id       uint64
	canceled bool
	fired    bool // FuzzWheel only: a cancel after the firing is a no-op
}

type refHeap []*refEvent

func (h refHeap) Len() int { return len(h) }
func (h refHeap) Less(i, j int) bool {
	if h[i].t != h[j].t {
		return h[i].t < h[j].t
	}
	return h[i].seq < h[j].seq
}
func (h refHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *refHeap) Push(x any)   { *h = append(*h, x.(*refEvent)) }
func (h *refHeap) Pop() any {
	old := *h
	n := len(old)
	e := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return e
}

func mix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// scriptDelay picks a delay for child c of event id, mixing same-instant
// wakes, near timers, cascade-boundary values, and beyond-span far timers.
func scriptDelay(id, c uint64) Duration {
	r := mix64(id*131 + c)
	switch r % 8 {
	case 0:
		return 0 // same-instant fast lane
	case 1:
		return Duration(r % 64) // level 0
	case 2:
		return Duration(64 + r%4032) // level 1
	case 3:
		return Duration((1 << (6 * (1 + r%5))) + r%1000) // level boundaries
	case 4:
		return Duration(1<<(6*wheelLevels) - 1 - r%3) // just inside the span
	case 5:
		return Duration(1<<(6*wheelLevels) + r%1000) // overflow heap
	case 6:
		return Duration(r % (1 << 20))
	default:
		return Duration(r % (1 << 36))
	}
}

// scriptChildren returns how many children event id schedules, decaying so
// the script terminates.
func scriptChildren(id uint64, depth int) int {
	if depth > 6 {
		return 0
	}
	return int(mix64(id) % 3)
}

// TestWheelMatchesHeapReference runs the randomized script through the
// reference heap and the kernel and requires identical execution order.
func TestWheelMatchesHeapReference(t *testing.T) {
	const seeds = 5
	for seed := uint64(1); seed <= seeds; seed++ {
		ref := runReferenceScript(seed)
		got := runKernelScript(t, seed)
		n := len(ref)
		if len(got) < n {
			n = len(got)
		}
		for i := 0; i < n; i++ {
			if ref[i] != got[i] {
				t.Fatalf("seed %d: divergence at event %d: reference %v, kernel %v", seed, i, ref[i], got[i])
			}
		}
		if len(ref) != len(got) {
			t.Fatalf("seed %d: reference fired %d events, kernel fired %d", seed, len(ref), len(got))
		}
	}
}

type firing struct {
	id uint64
	t  Time
}

// runReferenceScript executes the script on the plain (t, seq) heap.
func runReferenceScript(seed uint64) []firing {
	var (
		h     refHeap
		now   Time
		seq   uint64
		next  uint64 = seed * 1_000_000
		order []firing
		depth = map[uint64]int{}
		live  = map[uint64]*refEvent{}
	)
	spawn := func(id uint64, t Time) *refEvent {
		e := &refEvent{t: t, seq: seq, id: id}
		seq++
		heap.Push(&h, e)
		live[id] = e
		return e
	}
	for i := 0; i < 40; i++ {
		id := next
		next++
		spawn(id, Time(scriptDelay(seed, uint64(i))))
	}
	for h.Len() > 0 {
		e := heap.Pop(&h).(*refEvent)
		if e.canceled {
			continue
		}
		now = e.t
		delete(live, e.id)
		order = append(order, firing{id: e.id, t: now})
		d := depth[e.id]
		for c := 0; c < scriptChildren(e.id, d); c++ {
			id := next
			next++
			depth[id] = d + 1
			spawn(id, now.Add(scriptDelay(e.id, uint64(c))))
		}
		// Sometimes cancel a pending event, chosen deterministically.
		if mix64(e.id^0xabcd)%4 == 0 {
			victim := mix64(e.id) % (next - seed*1_000_000)
			if v, ok := live[seed*1_000_000+victim]; ok {
				v.canceled = true
				delete(live, seed*1_000_000+victim)
			}
		}
	}
	return order
}

// runKernelScript executes the same script through the kernel scheduler
// (fast lane + wheel + overflow heap), keeping a timer handle per event so
// cancels are legal.
func runKernelScript(t *testing.T, seed uint64) []firing {
	k := NewKernel(int64(seed))
	var (
		next  uint64 = seed * 1_000_000
		order []firing
		depth = map[uint64]int{}
		live  = map[uint64]timer{}
	)
	var fire func(id uint64) func()
	spawn := func(id uint64, at Time) {
		live[id] = k.timerAt(at, fire(id))
	}
	fire = func(id uint64) func() {
		return func() {
			delete(live, id)
			order = append(order, firing{id: id, t: k.now})
			d := depth[id]
			for c := 0; c < scriptChildren(id, d); c++ {
				cid := next
				next++
				depth[cid] = d + 1
				spawn(cid, k.now.Add(scriptDelay(id, uint64(c))))
			}
			if mix64(id^0xabcd)%4 == 0 {
				victim := mix64(id) % (next - seed*1_000_000)
				if v, ok := live[seed*1_000_000+victim]; ok {
					k.cancel(v)
					delete(live, seed*1_000_000+victim)
				}
			}
		}
	}
	for i := 0; i < 40; i++ {
		id := next
		next++
		spawn(id, Time(scriptDelay(seed, uint64(i))))
	}
	// Drive in ragged RunUntil chunks so limits land mid-slot and
	// mid-cascade, not only at event times.
	var limit Time
	step := Duration(1)
	for k.pending > 0 {
		limit = limit.Add(step)
		step *= 7
		if err := k.RunUntil(limit); err != nil {
			t.Fatalf("seed %d: RunUntil: %v", seed, err)
		}
	}
	return order
}

// timerAt schedules fn at t and returns the handle that cancels it.
func (k *Kernel) timerAt(t Time, fn func()) timer {
	e := k.schedule(t, fn)
	return timer{e, e.seq}
}

// --- targeted edge cases ---------------------------------------------------

// TestWheelCancelWheelResidentAndOverflow cancels one timer resident in
// the wheel and one parked in the overflow heap; neither may fire, and the
// run must still drain (pending accounting covers the eager unlink and the
// heap's lazy removal alike).
func TestWheelCancelWheelResidentAndOverflow(t *testing.T) {
	k := NewKernel(1)
	fired := map[string]bool{}
	nearVictim := k.timerAt(Time(500), func() { fired["nearVictim"] = true })
	farVictim := k.timerAt(Time(wheelSpan+500), func() { fired["farVictim"] = true })
	k.After(100, func() {
		fired["early"] = true
		k.cancel(nearVictim)
		k.cancel(farVictim)
	})
	k.After(Duration(wheelSpan+1000), func() { fired["late"] = true })
	if err := k.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if !fired["early"] || !fired["late"] {
		t.Fatalf("live events did not fire: %v", fired)
	}
	if fired["nearVictim"] || fired["farVictim"] {
		t.Fatalf("canceled timer fired: %v", fired)
	}
	if k.now != Time(wheelSpan+1000) {
		t.Fatalf("final now = %v, want %v (canceled trailing timers must not advance time)", k.now, Time(wheelSpan+1000))
	}
}

// TestWheelCascadeBoundaries schedules events exactly on (and around)
// level-boundary deltas and checks they fire in time order at the exact
// scheduled instants.
func TestWheelCascadeBoundaries(t *testing.T) {
	k := NewKernel(1)
	var deltas []Duration
	for l := 1; l <= wheelLevels; l++ {
		b := Duration(1) << (wheelBits * l)
		deltas = append(deltas, b-1, b, b+1)
	}
	var got []Time
	for _, d := range deltas {
		d := d
		k.After(d, func() { got = append(got, k.now) })
	}
	if err := k.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if len(got) != len(deltas) {
		t.Fatalf("fired %d of %d events", len(got), len(deltas))
	}
	for i, d := range deltas {
		if got[i] != Time(d) {
			t.Fatalf("event %d fired at %d, want %d", i, got[i], Time(d))
		}
	}
}

// TestWheelRunUntilMidSlot stops a run at a limit that falls strictly
// between scheduled events (mid-slot at several levels) and checks that
// time parks at the limit and the remaining events fire after resuming.
func TestWheelRunUntilMidSlot(t *testing.T) {
	k := NewKernel(1)
	var got []Time
	for _, d := range []Duration{10, 100, 5000, 300_000, 20_000_000} {
		d := d
		k.After(d, func() { got = append(got, k.now) })
	}
	if err := k.RunUntil(Time(150)); err != nil {
		t.Fatalf("RunUntil: %v", err)
	}
	if k.Now() != Time(150) {
		t.Fatalf("now = %v, want 150", k.Now())
	}
	if len(got) != 2 {
		t.Fatalf("fired %d events before limit, want 2", len(got))
	}
	if err := k.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	want := []Time{10, 100, 5000, 300_000, 20_000_000}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("got %v, want %v", got, want)
	}
}

// TestWheelAfterZeroOrdersWithWakes checks that After(0) callbacks and
// same-instant process wakes interleave in strict schedule order through
// the fast lane.
func TestWheelAfterZeroOrdersWithWakes(t *testing.T) {
	k := NewKernel(1)
	var got []string
	k.Spawn("a", func(p *Proc) {
		got = append(got, "a0")
		p.Yield()
		got = append(got, "a1")
	})
	k.After(0, func() { got = append(got, "cb0") })
	k.Spawn("b", func(p *Proc) {
		got = append(got, "b0")
		p.Yield()
		got = append(got, "b1")
	})
	k.After(0, func() { got = append(got, "cb1") })
	if err := k.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	want := "[a0 cb0 b0 cb1 a1 b1]"
	if fmt.Sprint(got) != want {
		t.Fatalf("got %v, want %v", got, want)
	}
}
