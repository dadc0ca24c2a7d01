package sim

import (
	"container/heap"
	"math/rand"
	"testing"
)

// FuzzWheel plays a byte script of schedule / cancel / run steps through
// the kernel scheduler and through wheel_test.go's (t, seq) heap reference,
// and compares them after every step. Handles are never forgotten, so a
// cancel may hit an event that is pending anywhere (any wheel level before
// or after a cascade, the due batch, the fast lane, the overflow heap),
// that already fired, that was already canceled, or whose struct has since
// been recycled into a later event. Fired events may themselves cancel a
// victim or schedule a child, which is what lands cancels between a
// cascade and the drain of the slot it fed.
//
// Each step is three bytes: an opcode and two operands.

type fireAct struct {
	cancel int      // id to cancel when the event fires, -1 for none
	child  Duration // delay of the event it schedules, -1 for none
}

var noAct = fireAct{cancel: -1, child: -1}

type wheelFuzz struct {
	t    *testing.T
	k    *Kernel
	acts map[int]fireAct // per top-level event id; children do nothing

	handles []timer // kernel side, by id
	fired   []firing

	ref      refHeap // reference side
	refEv    []*refEvent
	refNow   Time
	refSeq   uint64
	refLive  int
	refFired []firing
}

// fuzzDelay spreads two operand bytes over the fast lane, every wheel
// level, the level boundaries, the edge of the span and the overflow heap.
func fuzzDelay(a, b byte) Duration {
	r := uint64(a>>3) | uint64(b)<<5
	switch a % 8 {
	case 0:
		return 0
	case 1:
		return Duration(r % wheelSlots)
	case 2:
		return Duration(wheelSlots + r%4032)
	case 3:
		return Duration(uint64(1)<<(wheelBits*(1+r%5)) + (r>>3)%3 - 1)
	case 4:
		return Duration(wheelSpan - 1 - r%3)
	case 5:
		return Duration(wheelSpan + r)
	case 6:
		return Duration(r << 8)
	default:
		return Duration(r << 20)
	}
}

func (w *wheelFuzz) kernelSchedule(d Duration) {
	id := len(w.handles)
	w.handles = append(w.handles, w.k.timerAt(w.k.now.Add(d), func() { w.kernelFire(id) }))
}

func (w *wheelFuzz) kernelFire(id int) {
	w.fired = append(w.fired, firing{id: uint64(id), t: w.k.now})
	act, ok := w.acts[id]
	if !ok {
		return
	}
	if act.cancel >= 0 {
		w.k.cancel(w.handles[act.cancel%len(w.handles)])
	}
	if act.child >= 0 {
		w.kernelSchedule(act.child)
	}
}

func (w *wheelFuzz) refSchedule(d Duration) {
	e := &refEvent{t: w.refNow.Add(d), seq: w.refSeq, id: uint64(len(w.refEv))}
	w.refSeq++
	w.refLive++
	w.refEv = append(w.refEv, e)
	heap.Push(&w.ref, e)
}

func (w *wheelFuzz) refCancel(id int) {
	if e := w.refEv[id%len(w.refEv)]; !e.fired && !e.canceled {
		e.canceled = true
		w.refLive--
	}
}

func (w *wheelFuzz) refRun(limit Time) {
	for w.ref.Len() > 0 && w.ref[0].t <= limit {
		e := heap.Pop(&w.ref).(*refEvent)
		if e.canceled {
			continue
		}
		e.fired = true
		w.refLive--
		w.refNow = e.t
		w.refFired = append(w.refFired, firing{id: e.id, t: e.t})
		act, ok := w.acts[int(e.id)]
		if !ok {
			continue
		}
		if act.cancel >= 0 {
			w.refCancel(act.cancel)
		}
		if act.child >= 0 {
			w.refSchedule(act.child)
		}
	}
	if w.refLive > 0 {
		w.refNow = limit
	}
}

// check compares the two sides and audits the wheel's own bookkeeping:
// every resident event is live and knows its position, and count is their
// number.
func (w *wheelFuzz) check(step int) {
	t, k := w.t, w.k
	t.Helper()
	if len(w.fired) != len(w.refFired) {
		t.Fatalf("step %d: kernel fired %d events, reference %d", step, len(w.fired), len(w.refFired))
	}
	for i := range w.fired {
		if w.fired[i] != w.refFired[i] {
			t.Fatalf("step %d: firing %d: kernel %v, reference %v", step, i, w.fired[i], w.refFired[i])
		}
	}
	if k.now != w.refNow {
		t.Fatalf("step %d: now = %d, reference %d", step, k.now, w.refNow)
	}
	if k.pending != w.refLive {
		t.Fatalf("step %d: pending = %d, reference holds %d live events", step, k.pending, w.refLive)
	}
	resident := 0
	for l := range k.wheel.slots {
		for s, buf := range k.wheel.slots[l] {
			if (len(buf) > 0) != (k.wheel.occ[l]&(1<<uint(s)) != 0) {
				t.Fatalf("step %d: level %d slot %d holds %d events, occupancy bit disagrees", step, l, s, len(buf))
			}
			for i, e := range buf {
				if e.canceled || e.fn == nil {
					t.Fatalf("step %d: dead event seq %d resident at level %d slot %d", step, e.seq, l, s)
				}
				if int(e.level) != l || int(e.idx) != i {
					t.Fatalf("step %d: event seq %d at level %d index %d records level %d index %d", step, e.seq, l, i, e.level, e.idx)
				}
				resident++
			}
		}
	}
	if k.wheel.count != resident {
		t.Fatalf("step %d: wheel.count = %d, %d live events resident", step, k.wheel.count, resident)
	}
}

func runWheelScript(t *testing.T, data []byte) {
	w := &wheelFuzz{t: t, k: NewKernel(1), acts: map[int]fireAct{}}
	for step := 0; len(data) >= 3; step, data = step+1, data[3:] {
		op, a, b := data[0], data[1], data[2]
		switch op % 4 {
		case 0, 1:
			// Schedule; the opcode's upper bits pick what firing does.
			act := noAct
			if op&4 != 0 {
				act.cancel = int(op>>4) + int(b)
			}
			if op&8 != 0 {
				act.child = fuzzDelay(b, a)
			}
			id := len(w.handles)
			if id != len(w.refEv) {
				t.Fatalf("step %d: kernel scheduled %d events, reference %d", step, id, len(w.refEv))
			}
			if act != noAct {
				w.acts[id] = act
			}
			w.kernelSchedule(fuzzDelay(a, b))
			w.refSchedule(fuzzDelay(a, b))
			if got, want := w.handles[id].seq, w.refEv[id].seq; got != want {
				t.Fatalf("step %d: event %d scheduled under seq %d, reference %d", step, id, got, want)
			}
		case 2:
			if len(w.handles) > 0 {
				victim := int(a) | int(b)<<8
				w.k.cancel(w.handles[victim%len(w.handles)])
				w.refCancel(victim)
			}
		case 3:
			limit := w.k.now.Add(fuzzDelay(a, b))
			if err := w.k.RunUntil(limit); err != nil {
				t.Fatalf("step %d: RunUntil: %v", step, err)
			}
			w.refRun(limit)
		}
		w.check(step)
	}
	// Drain: everything still live fires, in order, and nothing is left.
	if err := w.k.Run(); err != nil {
		t.Fatalf("drain: %v", err)
	}
	w.refRun(Time(1<<63 - 1))
	w.check(-1)
	if w.k.pending != 0 || w.k.wheel.count != 0 {
		t.Fatalf("after drain: pending = %d, wheel.count = %d", w.k.pending, w.k.wheel.count)
	}
}

func FuzzWheel(f *testing.F) {
	// A cancel of a wheel-resident event, of one in the overflow heap, of a
	// fired one, then a re-schedule and a run across a cascade.
	f.Add([]byte{0, 2, 9, 0, 5, 1, 2, 0, 0, 2, 1, 0, 3, 1, 40, 2, 0, 0, 0, 2, 9, 3, 6, 200})
	rng := rand.New(rand.NewSource(21))
	for i := 0; i < 64; i++ {
		data := make([]byte, 3*(20+rng.Intn(200)))
		rng.Read(data)
		f.Add(data)
	}
	f.Fuzz(runWheelScript)
}
