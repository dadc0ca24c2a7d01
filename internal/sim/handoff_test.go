package sim

import (
	"testing"
	"time"
)

// wantPanic runs run, which must re-panic with want on this goroutine.
func wantPanic(t *testing.T, want any, run func()) {
	t.Helper()
	defer func() {
		t.Helper()
		if r := recover(); r != want {
			t.Fatalf("recovered %v, want %v", r, want)
		}
	}()
	run()
	t.Fatal("expected a panic")
}

// TestEventPanicInParkPropagates: a callback that panics while the event
// loop runs inside another process's park, on that process's goroutine,
// re-panics in the caller of Run.
func TestEventPanicInParkPropagates(t *testing.T) {
	k := NewKernel(1)
	ran := false
	k.Spawn("host", func(p *Proc) {
		k.After(time.Millisecond, func() {
			ran = true
			panic("boom in park")
		})
		p.Sleep(2 * time.Millisecond) // the loop fires the callback in here
		t.Error("process resumed past the panicking event")
	})
	wantPanic(t, "boom in park", func() { k.Run() })
	if !ran {
		t.Fatal("callback never ran")
	}
}

// TestEventPanicAfterProcReturnPropagates: a callback that panics on a
// worker carrying the loop on right after that worker's Go process
// returned re-panics in the caller of RunUntil.
func TestEventPanicAfterProcReturnPropagates(t *testing.T) {
	k := NewKernel(1)
	k.Go("leaver", func(p *Proc) {
		k.After(time.Millisecond, func() { panic("boom after return") })
	})
	wantPanic(t, "boom after return", func() { k.RunUntil(Time(time.Second)) })
}

// TestEventPanicInShardWindowPropagates: a callback that panics inside a
// multi-shard window, in a process's park on a shard a pinned worker (or
// the coordinator) runs, re-panics in the caller of the group's RunUntil,
// at one worker and at two.
func TestEventPanicInShardWindowPropagates(t *testing.T) {
	for _, workers := range []int{1, 2} {
		g := NewShardGroup(1, 2, time.Millisecond)
		g.SetWorkers(workers)
		for i := 0; i < 2; i++ {
			k := g.Shard(i).Kernel()
			k.Spawn("ticker", func(p *Proc) {
				for j := 0; j < 100; j++ {
					p.Sleep(100 * time.Microsecond)
				}
			})
		}
		k := g.Shard(1).Kernel()
		k.Spawn("host", func(p *Proc) {
			k.After(5*time.Millisecond, func() { panic("boom in window") })
			p.Sleep(10 * time.Millisecond)
		})
		wantPanic(t, "boom in window", func() { g.RunUntil(Time(time.Second)) })
		if g.Windows() == 0 {
			t.Fatalf("workers=%d: no multi-shard window ran", workers)
		}
	}
}

// TestSelfWakeNeedsNoSwitch: a process whose own wake is always the next
// event never gives control away — one switch to start it, one to hand
// back to Run — and two processes taking turns through queues cost one
// switch per turn.
func TestSelfWakeNeedsNoSwitch(t *testing.T) {
	k := NewKernel(1)
	k.Go("sleeper", func(p *Proc) {
		for i := 0; i < 1000; i++ {
			p.Sleep(time.Microsecond)
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if st := k.Stats(); st.Parks != 1000 || st.Switches > 2 {
		t.Fatalf("1000 sleeps: %d parks, %d switches; want 1000 parks and at most 2 switches", st.Parks, st.Switches)
	}

	const turns = 500
	k = NewKernel(1)
	ping, pong := NewQueue[int](k), NewQueue[int](k)
	k.Go("ping", func(p *Proc) {
		for i := 0; i < turns; i++ {
			ping.Push(i)
			pong.Pop(p)
		}
	})
	k.Go("pong", func(p *Proc) {
		for i := 0; i < turns; i++ {
			pong.Push(ping.Pop(p))
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if st := k.Stats(); st.Switches > 2*turns+2 {
		t.Fatalf("%d turns each way: %d switches, want at most %d", turns, st.Switches, 2*turns+2)
	}
}
