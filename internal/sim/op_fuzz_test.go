package sim

import (
	"math/rand"
	"slices"
	"testing"
)

// FuzzOp plays a byte script of Begin / Leg / Hold / Release / AwaitLegs
// steps over up to four uses of pooled ops at once, drawn from one free list
// the way a backend draws them, against opUse: a reference that recounts a
// use's holders from scratch. After every step it checks that an op is on the
// free list exactly when its use's count reached 0, that no op or leg is
// handed out to two uses that hold them, that legs come back in slot order
// (the same leg for the same slot, built only the first time any use reaches
// it), and that an AwaitLegs returns at the Release that leaves its caller
// the only holder, not before.
//
// Each step is one byte: the step in the low bits, which use and which
// holder in the rest.

type opLeg struct{ slot int }

type fuzzOp struct {
	Op[opLeg]
	slots   []*opLeg // every leg build made, by slot
	reached int      // the most legs any use has taken
}

// opUse is the reference model of one use of an op.
type opUse struct {
	op       *fuzzOp
	coord    bool     // the coordinator holds: from Begin to its Release
	legs     []*opLeg // handed out, in order
	held     []bool   // per leg: not yet released
	holds    int      // Holds not yet released
	awaiting bool     // a process is in AwaitLegs on the coordinator's behalf
	returned bool     // it has returned
}

func (u *opUse) count() int {
	n := u.holds
	if u.coord {
		n++
	}
	for _, h := range u.held {
		if h {
			n++
		}
	}
	return n
}

type opFuzz struct {
	t    *testing.T
	k    *Kernel
	free []*fuzzOp
	ops  []*fuzzOp // every op ever built
	uses []*opUse  // the uses still holding their op
}

func (f *opFuzz) begin() {
	op := Take(&f.free)
	if op == nil {
		op = &fuzzOp{}
		f.ops = append(f.ops, op)
	}
	for _, u := range f.uses {
		if u.op == op {
			f.t.Fatalf("an op came off the free list while a use holds it (count %d)", u.count())
		}
	}
	op.Begin()
	f.uses = append(f.uses, &opUse{op: op, coord: true})
}

func (f *opFuzz) leg(u *opUse) {
	op := u.op
	l := op.Leg(func() *opLeg {
		l := &opLeg{slot: len(op.slots)}
		op.slots = append(op.slots, l)
		return l
	})
	if i := len(u.legs); l.slot != i || op.slots[i] != l {
		f.t.Fatalf("leg %d of a use is the leg built for slot %d", i, l.slot)
	}
	u.legs, u.held = append(u.legs, l), append(u.held, true)
	if op.reached = max(op.reached, len(u.legs)); len(op.slots) != op.reached {
		f.t.Fatalf("%d legs built for an op whose uses took at most %d", len(op.slots), op.reached)
	}
}

// release lets go of u's holder number n, counting the coordinator (unless
// it is awaiting), then the legs still out, then the Holds.
func (f *opFuzz) release(u *opUse, n int) {
	switch {
	case u.coord && !u.awaiting && n == 0:
		u.coord = false
	default:
		if u.coord && !u.awaiting {
			n--
		}
		for i, h := range u.held {
			if h && n == 0 {
				u.held[i] = false
				n = -1
				break
			} else if h {
				n--
			}
		}
		if n >= 0 {
			u.holds--
		}
	}
	if last := u.op.Release(); last != (u.count() == 0) {
		f.t.Fatalf("Release reported last = %t with %d holders left", last, u.count())
	} else if last {
		f.free = append(f.free, u.op)
		f.uses = slices.DeleteFunc(f.uses, func(v *opUse) bool { return v == u })
	}
}

func (f *opFuzz) await(u *opUse) {
	u.awaiting, u.returned = true, false
	f.k.Go("awaiter", func(p *Proc) {
		u.op.AwaitLegs(p)
		if u.count() != 1 {
			f.t.Errorf("AwaitLegs returned with %d holders", u.count())
		}
		u.returned = true
	})
}

// releasable is how many of u's holders a Release step may pick.
func (u *opUse) releasable() int {
	n := u.count()
	if u.coord && u.awaiting {
		n--
	}
	return n
}

// check runs after every step, once the processes it woke have run.
func (f *opFuzz) check() {
	for _, u := range f.uses {
		if u.awaiting && u.returned {
			u.awaiting = false
		}
		if u.awaiting && u.count() == 1 {
			f.t.Fatal("AwaitLegs still blocked with its caller the only holder")
		}
		if !u.op.Held() || !slices.Equal(u.op.Legs(), u.legs) {
			f.t.Fatalf("op of a use: held %t, legs %v, want held and %v", u.op.Held(), u.op.Legs(), u.legs)
		}
	}
	for _, op := range f.free {
		if op.Held() {
			f.t.Fatal("op on the free list still held")
		}
	}
	if n := len(f.uses) + len(f.free); n != len(f.ops) {
		f.t.Fatalf("%d ops built, %d held or free", len(f.ops), n)
	}
	for _, op := range f.ops {
		if !slices.Equal(op.Built(), op.slots) {
			f.t.Fatalf("op built %v, want every leg made, by slot: %v", op.Built(), op.slots)
		}
	}
}

func checkOpScript(t *testing.T, script []byte) {
	f := &opFuzz{t: t, k: NewKernel(1)}
	f.k.Spawn("driver", func(p *Proc) {
		step := func(b byte) {
			arg := int(b >> 3)
			var u *opUse
			if len(f.uses) > 0 {
				u = f.uses[arg%len(f.uses)]
			}
			switch b % 8 {
			case 0, 1:
				if len(f.uses) < 4 {
					f.begin()
				}
			case 2, 3:
				if u != nil {
					f.leg(u)
				}
			case 4:
				if u != nil {
					u.op.Hold()
					u.holds++
				}
			case 5, 6:
				if u != nil && u.releasable() > 0 {
					f.release(u, arg%u.releasable())
				}
			case 7:
				if u != nil && u.coord && !u.awaiting {
					f.await(u)
				}
			}
			p.Sleep(1) // the awaiter a Release woke runs before the check
			f.check()
		}
		for _, b := range script {
			step(b)
		}
		// Let every holder go: the legs and Holds first, so that a pending
		// AwaitLegs returns, then the coordinators.
		for len(f.uses) > 0 {
			u := f.uses[0]
			if u.releasable() > 0 {
				f.release(u, u.releasable()-1)
			} else {
				f.release(u, 0)
			}
			p.Sleep(1)
			f.check()
		}
	})
	if err := f.k.Run(); err != nil {
		t.Fatal(err)
	}
}

func FuzzOp(f *testing.F) {
	f.Add([]byte{0, 2, 2, 7, 5, 5, 5})             // two legs, await them, all released
	f.Add([]byte{0, 2, 4, 5, 0, 2, 13, 13, 5, 5})  // the coordinator returns first; a second use while its legs run
	f.Add([]byte{0, 2, 2, 4, 7, 13, 0, 2, 13, 21}) // await with a Hold out, interleaved with another use
	rng := rand.New(rand.NewSource(26))
	for range 200 {
		script := make([]byte, 4+rng.Intn(60))
		rng.Read(script)
		f.Add(script)
	}
	f.Fuzz(checkOpScript)
}
