package sim

import (
	"fmt"
	"math"
	"runtime"
	"testing"
	"time"
	"unsafe"
)

func TestSleepAdvancesVirtualTime(t *testing.T) {
	k := NewKernel(1)
	var woke Time
	k.Spawn("sleeper", func(p *Proc) {
		p.Sleep(5 * time.Millisecond)
		woke = p.Now()
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if woke != Time(5*time.Millisecond) {
		t.Fatalf("woke at %v, want 5ms", woke)
	}
}

func TestSpawnStartsAtCurrentTime(t *testing.T) {
	k := NewKernel(1)
	var childStart Time
	k.Spawn("parent", func(p *Proc) {
		p.Sleep(time.Second)
		k.Spawn("child", func(c *Proc) {
			childStart = c.Now()
		})
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if childStart != Time(time.Second) {
		t.Fatalf("child started at %v, want 1s", childStart)
	}
}

func TestEventOrderingIsFIFOAtSameInstant(t *testing.T) {
	k := NewKernel(1)
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		k.After(time.Millisecond, func() { order = append(order, i) })
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	for i, v := range order {
		if v != i {
			t.Fatalf("order = %v, want ascending", order)
		}
	}
}

func TestFutureAwaitBeforeSet(t *testing.T) {
	k := NewKernel(1)
	f := NewFuture[int](k)
	var got int
	var gotAt Time
	k.Spawn("waiter", func(p *Proc) {
		got = f.Await(p)
		gotAt = p.Now()
	})
	k.Spawn("setter", func(p *Proc) {
		p.Sleep(3 * time.Millisecond)
		f.Set(42)
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if got != 42 || gotAt != Time(3*time.Millisecond) {
		t.Fatalf("got %d at %v, want 42 at 3ms", got, gotAt)
	}
}

func TestFutureAwaitAfterSet(t *testing.T) {
	k := NewKernel(1)
	f := NewFuture[string](k)
	f.Set("ready")
	var got string
	k.Spawn("waiter", func(p *Proc) { got = f.Await(p) })
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if got != "ready" {
		t.Fatalf("got %q", got)
	}
}

func TestFutureFirstSetWins(t *testing.T) {
	k := NewKernel(1)
	f := NewFuture[int](k)
	f.Set(1)
	f.Set(2)
	if v, ok := f.Value(); !ok || v != 1 {
		t.Fatalf("value = %d,%v want 1,true", v, ok)
	}
}

func TestFutureTimeoutExpires(t *testing.T) {
	k := NewKernel(1)
	f := NewFuture[int](k)
	var ok bool
	var at Time
	k.Spawn("waiter", func(p *Proc) {
		_, ok = f.AwaitTimeout(p, 10*time.Millisecond)
		at = p.Now()
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if ok || at != Time(10*time.Millisecond) {
		t.Fatalf("ok=%v at=%v, want timeout at 10ms", ok, at)
	}
}

func TestFutureTimeoutBeatenBySet(t *testing.T) {
	k := NewKernel(1)
	f := NewFuture[int](k)
	var got int
	var ok bool
	k.Spawn("waiter", func(p *Proc) {
		got, ok = f.AwaitTimeout(p, 10*time.Millisecond)
	})
	k.Spawn("setter", func(p *Proc) {
		p.Sleep(2 * time.Millisecond)
		f.Set(7)
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if !ok || got != 7 {
		t.Fatalf("got=%d ok=%v, want 7,true", got, ok)
	}
}

func TestFutureOnDoneRunsInline(t *testing.T) {
	k := NewKernel(1)
	f := NewFuture[int](k)
	var seen []int
	f.OnDone(func(v int) { seen = append(seen, v) })
	f.Set(5)
	f.OnDone(func(v int) { seen = append(seen, v*2) })
	if len(seen) != 2 || seen[0] != 5 || seen[1] != 10 {
		t.Fatalf("seen = %v", seen)
	}
}

func TestResourceSerializesAtCapacity(t *testing.T) {
	k := NewKernel(1)
	r := NewResource(k, "disk", 1)
	var finish []Time
	for i := 0; i < 3; i++ {
		k.Spawn(fmt.Sprintf("user%d", i), func(p *Proc) {
			r.Use(p, 10*time.Millisecond)
			finish = append(finish, p.Now())
		})
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	want := []Time{Time(10 * time.Millisecond), Time(20 * time.Millisecond), Time(30 * time.Millisecond)}
	for i := range want {
		if finish[i] != want[i] {
			t.Fatalf("finish = %v, want %v", finish, want)
		}
	}
}

func TestResourceParallelAtHigherCapacity(t *testing.T) {
	k := NewKernel(1)
	r := NewResource(k, "cpu", 2)
	var finish []Time
	for i := 0; i < 4; i++ {
		k.Spawn(fmt.Sprintf("user%d", i), func(p *Proc) {
			r.Use(p, 10*time.Millisecond)
			finish = append(finish, p.Now())
		})
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	// Two at a time: finish at 10,10,20,20 ms.
	want := []Time{Time(10 * time.Millisecond), Time(10 * time.Millisecond), Time(20 * time.Millisecond), Time(20 * time.Millisecond)}
	for i := range want {
		if finish[i] != want[i] {
			t.Fatalf("finish = %v, want %v", finish, want)
		}
	}
}

func TestResourceFIFOOrder(t *testing.T) {
	k := NewKernel(1)
	r := NewResource(k, "disk", 1)
	var order []int
	for i := 0; i < 5; i++ {
		i := i
		k.Spawn(fmt.Sprintf("user%d", i), func(p *Proc) {
			p.Sleep(Duration(i) * time.Microsecond) // arrive in index order
			r.Use(p, time.Millisecond)
			order = append(order, i)
		})
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	for i, v := range order {
		if v != i {
			t.Fatalf("service order = %v, want FIFO", order)
		}
	}
}

func TestResourceUtilization(t *testing.T) {
	k := NewKernel(1)
	r := NewResource(k, "disk", 1)
	k.Spawn("user", func(p *Proc) {
		r.Use(p, 30*time.Millisecond)
		p.Sleep(70 * time.Millisecond)
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if u := r.Utilization(); u < 0.29 || u > 0.31 {
		t.Fatalf("utilization = %v, want ~0.30", u)
	}
}

func TestQuorumResolvesOnNeed(t *testing.T) {
	k := NewKernel(1)
	q := NewQuorum(k, 2, 3)
	var ok bool
	var at Time
	k.Spawn("coordinator", func(p *Proc) {
		ok = q.Wait(p)
		at = p.Now()
	})
	delays := []Duration{5 * time.Millisecond, 1 * time.Millisecond, 9 * time.Millisecond}
	for _, d := range delays {
		d := d
		k.After(d, func() { q.Succeed() })
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if !ok || at != Time(5*time.Millisecond) {
		t.Fatalf("ok=%v at=%v, want true at 5ms (2nd ack)", ok, at)
	}
}

func TestQuorumFailsWhenImpossible(t *testing.T) {
	k := NewKernel(1)
	q := NewQuorum(k, 3, 3)
	var ok bool
	k.Spawn("coordinator", func(p *Proc) { ok = q.Wait(p) })
	k.After(time.Millisecond, func() { q.Succeed() })
	k.After(2*time.Millisecond, func() { q.Fail() })
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Fatal("quorum resolved true despite an unreachable need")
	}
}

func TestQuorumZeroNeedIsImmediate(t *testing.T) {
	k := NewKernel(1)
	q := NewQuorum(k, 0, 3)
	if !q.Done().Done() {
		t.Fatal("need=0 quorum should resolve immediately")
	}
}

func TestQueueBlocksAndDelivers(t *testing.T) {
	k := NewKernel(1)
	q := NewQueue[int](k)
	var got []int
	k.Spawn("consumer", func(p *Proc) {
		for i := 0; i < 3; i++ {
			got = append(got, q.Pop(p))
		}
	})
	k.Spawn("producer", func(p *Proc) {
		for i := 0; i < 3; i++ {
			p.Sleep(time.Millisecond)
			q.Push(i)
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	for i, v := range got {
		if v != i {
			t.Fatalf("got = %v", got)
		}
	}
}

func TestQueueMultipleConsumersDrainBacklog(t *testing.T) {
	k := NewKernel(1)
	q := NewQueue[int](k)
	var count int
	for i := 0; i < 3; i++ {
		k.Spawn(fmt.Sprintf("consumer%d", i), func(p *Proc) {
			q.Pop(p)
			count++
		})
	}
	k.Spawn("producer", func(p *Proc) {
		p.Sleep(time.Millisecond)
		// Push all three at once; each Push wakes one consumer, and
		// Pop's re-wake chain must not strand items.
		q.Push(1)
		q.Push(2)
		q.Push(3)
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if count != 3 {
		t.Fatalf("count = %d, want 3", count)
	}
}

func TestDeadlockDetected(t *testing.T) {
	k := NewKernel(1)
	f := NewFuture[int](k)
	k.Spawn("stuck", func(p *Proc) { f.Await(p) })
	err := k.Run()
	de, ok := err.(*DeadlockError)
	if !ok {
		t.Fatalf("err = %v, want DeadlockError", err)
	}
	if len(de.Blocked) != 1 {
		t.Fatalf("blocked = %v, want 1 entry", de.Blocked)
	}
}

func TestRunUntilStopsAtLimit(t *testing.T) {
	k := NewKernel(1)
	ticks := 0
	k.Spawn("ticker", func(p *Proc) {
		for {
			p.Sleep(time.Second)
			ticks++
		}
	})
	if err := k.RunUntil(Time(5*time.Second + time.Millisecond)); err != nil {
		t.Fatal(err)
	}
	if ticks != 5 {
		t.Fatalf("ticks = %d, want 5", ticks)
	}
	if k.Now() != Time(5*time.Second+time.Millisecond) {
		t.Fatalf("now = %v", k.Now())
	}
}

func TestDeterminismAcrossRuns(t *testing.T) {
	run := func() []string {
		k := NewKernel(42)
		var log []string
		r := NewResource(k, "disk", 2)
		for i := 0; i < 8; i++ {
			i := i
			k.Spawn(fmt.Sprintf("p%d", i), func(p *Proc) {
				for j := 0; j < 5; j++ {
					p.Sleep(Duration(p.Rand().Intn(1000)) * time.Microsecond)
					r.Use(p, Duration(p.Rand().Intn(500))*time.Microsecond)
					log = append(log, fmt.Sprintf("%d@%v", i, p.Now()))
				}
			})
		}
		if err := k.Run(); err != nil {
			t.Fatal(err)
		}
		return log
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("run diverges at %d: %q vs %q", i, a[i], b[i])
		}
	}
}

func TestKillUnwindsProcess(t *testing.T) {
	k := NewKernel(1)
	var reached bool
	p := k.Spawn("victim", func(p *Proc) {
		p.Sleep(10 * time.Millisecond)
		reached = true
	})
	k.Spawn("killer", func(q *Proc) {
		q.Sleep(time.Millisecond)
		p.Kill()
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if reached {
		t.Fatal("killed process ran past its sleep")
	}
	if !p.Done().Done() {
		t.Fatal("killed process did not terminate")
	}
}

func TestProcPanicPropagates(t *testing.T) {
	k := NewKernel(1)
	k.Spawn("boom", func(p *Proc) { panic("kaboom") })
	defer func() {
		if r := recover(); r != "kaboom" {
			t.Fatalf("recovered %v, want kaboom", r)
		}
	}()
	k.Run()
	t.Fatal("expected panic")
}

func TestDoneFutureFiresOnNormalExit(t *testing.T) {
	k := NewKernel(1)
	var observed Time
	p := k.Spawn("worker", func(p *Proc) { p.Sleep(4 * time.Millisecond) })
	k.Spawn("watcher", func(w *Proc) {
		p.Done().Await(w)
		observed = w.Now()
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if observed != Time(4*time.Millisecond) {
		t.Fatalf("observed exit at %v, want 4ms", observed)
	}
}

func TestAfterRunsInKernelContext(t *testing.T) {
	k := NewKernel(1)
	var at Time
	k.After(7*time.Millisecond, func() { at = k.Now() })
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if at != Time(7*time.Millisecond) {
		t.Fatalf("at = %v", at)
	}
}

func TestProcSeedDecorrelated(t *testing.T) {
	// Neighbouring process ids must get uncorrelated RNG streams. The old
	// derivation (seed ^ id*C>>1, which shifts after multiplying) left
	// consecutive ids with correlated seeds; the splitmix64 finalizer must
	// not. Check the lag-1 Pearson correlation of each process's first
	// draw, plus a coarse uniformity bound on the mean.
	const n = 256
	k := NewKernel(7)
	draws := make([]float64, n)
	for i := 0; i < n; i++ {
		i := i
		k.Spawn(fmt.Sprintf("p%d", i), func(p *Proc) {
			draws[i] = p.Rand().Float64()
		})
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	var mean float64
	for _, d := range draws {
		mean += d
	}
	mean /= n
	if mean < 0.4 || mean > 0.6 {
		t.Errorf("mean of first draws = %.3f, want ~0.5", mean)
	}
	var num, dx, dy float64
	for i := 0; i+1 < n; i++ {
		a, b := draws[i]-mean, draws[i+1]-mean
		num += a * b
		dx += a * a
		dy += b * b
	}
	if r := num / math.Sqrt(dx*dy); math.Abs(r) > 0.2 {
		t.Errorf("lag-1 correlation of neighbouring first draws = %.3f, want ~0", r)
	}
	seen := make(map[float64]bool, n)
	for _, d := range draws {
		if seen[d] {
			t.Fatalf("duplicate first draw %v across processes", d)
		}
		seen[d] = true
	}
}

func TestEventRecyclingPreservesOrderAndTimers(t *testing.T) {
	// Mix recycled sleep events with a deadline event: ordering must stay
	// FIFO-at-instant and a canceled deadline, itself recycled on cancel,
	// must never cancel the event that reuses its struct.
	k := NewKernel(1)
	f := NewFuture[int](k)
	var order []string
	k.Spawn("timed", func(p *Proc) {
		if v, ok := f.AwaitTimeout(p, 5*time.Millisecond); !ok || v != 9 {
			t.Errorf("await = %v,%v want 9,true", v, ok)
		}
		order = append(order, "timed")
	})
	k.Spawn("setter", func(p *Proc) {
		p.Sleep(time.Millisecond)
		f.Set(9) // cancels the deadline and recycles its struct
		for i := 0; i < 100; i++ {
			p.Sleep(time.Microsecond) // churn through the free list
		}
		order = append(order, "setter")
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if len(order) != 2 || order[0] != "timed" || order[1] != "setter" {
		t.Fatalf("order = %v", order)
	}
}

func TestSleepHotPathDoesNotAllocate(t *testing.T) {
	// Steady-state Sleep cycles must reuse event structs and the per-proc
	// wake closure: well under one allocation per event.
	k := NewKernel(1)
	const procs, rounds = 8, 2000
	for i := 0; i < procs; i++ {
		k.Spawn(fmt.Sprintf("sleeper%d", i), func(p *Proc) {
			for j := 0; j < rounds; j++ {
				p.Sleep(time.Microsecond)
			}
		})
	}
	// Warm up goroutines, free list, and heap capacity.
	if err := k.RunUntil(Time(100 * time.Microsecond)); err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	events := float64(procs * rounds)
	perEvent := float64(after.Mallocs-before.Mallocs) / events
	if perEvent > 0.1 {
		t.Errorf("allocs/event = %.3f, want ~0 (free list or wake closure regressed)", perEvent)
	}
}

func TestKilledResourceWaiterHandsUnitToNextWaiter(t *testing.T) {
	// Regression: a process killed while parked in Resource.Acquire absorbs
	// the capacity unit the releaser transferred to it. Without killedUnwind
	// the unit unwinds with the dead process and every later acquirer
	// deadlocks.
	k := NewKernel(1)
	r := NewResource(k, "disk", 1)
	var victimRan bool
	var thirdAt Time
	k.Spawn("holder", func(p *Proc) {
		r.Acquire(p)
		p.Sleep(10 * time.Millisecond)
		r.Release()
	})
	victim := k.Spawn("victim", func(p *Proc) {
		p.Sleep(time.Millisecond)
		r.Acquire(p)
		victimRan = true
		r.Release()
	})
	k.Spawn("killer", func(p *Proc) {
		p.Sleep(2 * time.Millisecond)
		victim.Kill()
	})
	k.Spawn("third", func(p *Proc) {
		p.Sleep(5 * time.Millisecond)
		r.Acquire(p)
		thirdAt = p.Now()
		r.Release()
	})
	if err := k.Run(); err != nil {
		t.Fatalf("Run: %v (unit leaked by killed waiter?)", err)
	}
	if victimRan {
		t.Fatal("killed waiter acquired the resource")
	}
	if thirdAt != Time(10*time.Millisecond) {
		t.Fatalf("third acquired at %v, want %v", thirdAt, Time(10*time.Millisecond))
	}
}

func TestKilledResourceWaiterReturnsUnitToCapacity(t *testing.T) {
	// Same leak, no other waiter queued: the unit transferred to the killed
	// process must come back as free capacity for a later acquirer.
	k := NewKernel(1)
	r := NewResource(k, "disk", 1)
	var lateAt Time
	k.Spawn("holder", func(p *Proc) {
		r.Acquire(p)
		p.Sleep(10 * time.Millisecond)
		r.Release()
	})
	victim := k.Spawn("victim", func(p *Proc) {
		p.Sleep(time.Millisecond)
		r.Acquire(p)
		r.Release()
	})
	k.Spawn("killer", func(p *Proc) {
		p.Sleep(2 * time.Millisecond)
		victim.Kill()
	})
	k.Spawn("late", func(p *Proc) {
		p.Sleep(20 * time.Millisecond)
		r.Acquire(p)
		lateAt = p.Now()
		r.Release()
	})
	if err := k.Run(); err != nil {
		t.Fatalf("Run: %v (unit leaked by killed waiter?)", err)
	}
	if lateAt != Time(20*time.Millisecond) {
		t.Fatalf("late acquired at %v, want %v (unit not returned to capacity)", lateAt, Time(20*time.Millisecond))
	}
	if r.InUse() != 0 {
		t.Fatalf("InUse = %d after drain, want 0", r.InUse())
	}
}

func TestKilledQueueWaiterChainsWakeToNext(t *testing.T) {
	// A Push wakes exactly one waiter; if that waiter was killed while
	// parked, the wake must chain to the next waiter so the buffered item is
	// not stranded.
	k := NewKernel(1)
	q := NewQueue[int](k)
	var got []int
	victim := k.Spawn("victim", func(p *Proc) {
		got = append(got, q.Pop(p)*-1)
	})
	k.Spawn("backup", func(p *Proc) {
		got = append(got, q.Pop(p))
	})
	k.Spawn("killer", func(p *Proc) {
		p.Sleep(time.Millisecond)
		victim.Kill()
	})
	k.Spawn("producer", func(p *Proc) {
		p.Sleep(2 * time.Millisecond)
		q.Push(7)
	})
	if err := k.Run(); err != nil {
		t.Fatalf("Run: %v (wake stranded on killed waiter?)", err)
	}
	if fmt.Sprint(got) != "[7]" {
		t.Fatalf("got %v, want [7] delivered to the backup waiter", got)
	}
	if q.Len() != 0 {
		t.Fatalf("queue still buffers %d item(s)", q.Len())
	}
}

func TestGoRunsDetachedProcesses(t *testing.T) {
	k := NewKernel(1)
	var done int
	for i := 0; i < 50; i++ {
		k.Go("worker", func(p *Proc) {
			p.Sleep(time.Millisecond)
			done++
		})
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if done != 50 {
		t.Fatalf("done = %d, want 50", done)
	}
	if k.Live() != 0 {
		t.Fatalf("Live = %d after drain, want 0", k.Live())
	}
}

func TestGoMatchesSpawnSemantics(t *testing.T) {
	// Go must schedule identically to Spawn modulo the returned handle:
	// same process ids, same wake times. RNG draws are compared Go-vs-Go
	// only — Go deliberately uses the reseedable small-state Source while
	// Spawn keeps the stdlib source, so the streams differ by generator
	// (both deterministic and procSeed-derived).
	type draw struct {
		id int64
		at Time
		v  int64
	}
	run := func(useGo bool) []draw {
		k := NewKernel(42)
		var out []draw
		body := func(p *Proc) {
			p.Sleep(Duration(p.ID()) * time.Microsecond)
			out = append(out, draw{p.ID(), p.Now(), p.Rand().Int63()})
		}
		for i := 0; i < 30; i++ {
			if useGo {
				k.Go("w", body)
			} else {
				k.Spawn("w", body)
			}
		}
		if err := k.Run(); err != nil {
			t.Fatal(err)
		}
		return out
	}
	spawned, goed := run(false), run(true)
	if len(spawned) != len(goed) {
		t.Fatalf("run lengths differ: spawn %d, go %d", len(spawned), len(goed))
	}
	for i := range spawned {
		if spawned[i].id != goed[i].id || spawned[i].at != goed[i].at {
			t.Fatalf("Go scheduling diverged from Spawn at %d:\nspawn: %v\ngo:    %v",
				i, spawned[i], goed[i])
		}
	}
	if again := run(true); fmt.Sprint(goed) != fmt.Sprint(again) {
		t.Fatalf("Go runs not deterministic:\nfirst:  %v\nsecond: %v", goed, again)
	}
}

func TestGoPooledProcsDoNotLeakState(t *testing.T) {
	// Sequential waves of Go processes recycle Proc structs; each lifetime
	// must see a fresh id, name, and RNG stream, not its predecessor's.
	k := NewKernel(7)
	seen := map[int64]bool{}
	var draws []int64
	k.Spawn("driver", func(p *Proc) {
		for wave := 0; wave < 5; wave++ {
			for i := 0; i < 4; i++ {
				k.Go("wave", func(q *Proc) {
					if seen[q.ID()] {
						t.Errorf("duplicate proc id %d from pooled Proc", q.ID())
					}
					seen[q.ID()] = true
					draws = append(draws, q.Rand().Int63())
				})
			}
			p.Sleep(time.Millisecond)
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if len(draws) != 20 {
		t.Fatalf("ran %d procs, want 20", len(draws))
	}
	uniq := map[int64]bool{}
	for _, d := range draws {
		uniq[d] = true
	}
	if len(uniq) < 19 {
		t.Fatalf("pooled RNGs repeated streams: %d unique draws of %d", len(uniq), len(draws))
	}
}

func TestDrainPoolsReleasesWorkerGoroutines(t *testing.T) {
	// Pooled worker goroutines must be torn down when a run drains: sweeps
	// build hundreds of kernels, and parked goroutines are never GC'd.
	before := runtime.NumGoroutine()
	k := NewKernel(1)
	for i := 0; i < 64; i++ {
		k.Go("burst", func(p *Proc) { p.Sleep(time.Microsecond) })
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		runtime.GC()
		if n := runtime.NumGoroutine(); n <= before+2 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines = %d, want <= %d (worker pool not drained)", runtime.NumGoroutine(), before+2)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// futureWaitAllocs runs ops waits on one embedded future from a pooled Go
// process — each armed by Init, set 1µs later by a callback built once —
// and returns the heap allocations of the steady state (after a warm-up
// that fills the free lists), with the event free list's length and the
// wheel's resident count at the warm-up's end and at the run's end.
func futureWaitAllocs(t *testing.T, ops int, wait func(f *Future[int], p *Proc)) (allocs uint64, free, resident [2]int) {
	t.Helper()
	const warm = 1000
	k := NewKernel(1)
	var f Future[int]
	set := func() { f.Set(7) }
	var before, after runtime.MemStats
	k.Go("waiter", func(p *Proc) {
		for i := 0; i < warm+ops; i++ {
			if i == warm {
				free[0], resident[0] = len(k.free), k.wheel.count
				runtime.ReadMemStats(&before)
			}
			f.Init(k)
			k.After(time.Microsecond, set)
			wait(&f, p)
		}
		runtime.ReadMemStats(&after)
		free[1], resident[1] = len(k.free), k.wheel.count
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	return after.Mallocs - before.Mallocs, free, resident
}

// TestFutureAwaitZeroAlloc: a one-waiter Await on an embedded future costs
// no allocation (the waiter is stored inline).
func TestFutureAwaitZeroAlloc(t *testing.T) {
	const ops = 100_000
	allocs, _, _ := futureWaitAllocs(t, ops, func(f *Future[int], p *Proc) {
		if v := f.Await(p); v != 7 {
			t.Errorf("await = %d, want 7", v)
		}
	})
	if allocs*1000 > ops {
		t.Errorf("%d allocations over %d waits, want 0 per wait", allocs, ops)
	}
}

// TestAwaitTimeoutSteadyStateZeroAlloc: a wait that is set long before its
// deadline costs no allocation, hands the deadline's event struct back to
// the free list at the cancel, and leaves nothing behind in the wheel.
func TestAwaitTimeoutSteadyStateZeroAlloc(t *testing.T) {
	const ops = 100_000
	allocs, free, resident := futureWaitAllocs(t, ops, func(f *Future[int], p *Proc) {
		if v, ok := f.AwaitTimeout(p, 5*time.Second); !ok || v != 7 {
			t.Errorf("await = %d,%v want 7,true", v, ok)
		}
	})
	if allocs*1000 > ops {
		t.Errorf("%d allocations over %d waits, want 0 per wait", allocs, ops)
	}
	if free[1] < free[0] {
		t.Errorf("event free list shrank from %d to %d: canceled deadlines are not recycled", free[0], free[1])
	}
	if resident[1] != resident[0] {
		t.Errorf("wheel.count went from %d to %d: canceled deadlines stay resident", resident[0], resident[1])
	}
}

// TestFutureTimeoutKeepsWaiterOrder: a waiter that times out leaves the
// list without reordering the others, and a later waiter queues behind
// them.
func TestFutureTimeoutKeepsWaiterOrder(t *testing.T) {
	k := NewKernel(1)
	f := NewFuture[int](k)
	var order []string
	wait := func(name string, start, d time.Duration) {
		k.Spawn(name, func(p *Proc) {
			p.Sleep(start)
			if _, ok := f.AwaitTimeout(p, d); ok {
				order = append(order, name)
			} else {
				order = append(order, name+"-timeout")
			}
		})
	}
	wait("a", 0, time.Millisecond) // first waiter, times out
	wait("b", 0, time.Second)
	wait("c", 0, 2*time.Millisecond) // middle of the list, times out
	wait("d", 0, time.Second)
	wait("e", 3*time.Millisecond, time.Second) // arrives after both timeouts
	k.After(10*time.Millisecond, func() { f.Set(1) })
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if got, want := fmt.Sprint(order), "[a-timeout c-timeout b d e]"; got != want {
		t.Fatalf("order = %v, want %v", got, want)
	}
}

// TestFutureInitRearms: Init forgets the previous value, and refuses a
// future that still has a process parked on it.
func TestFutureInitRearms(t *testing.T) {
	k := NewKernel(1)
	var f Future[int]
	f.Init(k)
	f.Set(1)
	f.Init(k)
	if v, ok := f.Value(); ok || v != 0 {
		t.Fatalf("after Init: value = %d,%v want 0,false", v, ok)
	}
	k.Spawn("waiter", func(p *Proc) { f.Await(p) })
	k.After(time.Millisecond, func() {
		defer func() {
			if recover() == nil {
				t.Error("Init of a future with a parked waiter did not panic")
			}
			f.Set(2)
		}()
		f.Init(k)
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
}

// TestStaleTimerHandleCancelsNothing: a handle outlives its event; once
// the event has fired or been canceled and its struct carries a later
// event, canceling through the old handle must not touch that one.
func TestStaleTimerHandleCancelsNothing(t *testing.T) {
	k := NewKernel(1)
	fired := 0
	first := k.timerAt(Time(100), func() { fired++ })
	k.cancel(first) // unlinked from the wheel and recycled at once
	second := k.timerAt(Time(200), func() { fired++ })
	if second.e != first.e {
		t.Fatalf("the canceled event's struct was not recycled into the next event")
	}
	k.cancel(first) // stale: same struct, older seq
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if fired != 1 {
		t.Fatalf("fired = %d, want 1: the stale handle canceled the recycled event", fired)
	}
	k.cancel(second) // after the firing: no-op
	if st := k.Stats(); st.TimersCanceled != 1 || st.TimersUnlinked != 1 {
		t.Fatalf("stats = %+v, want one cancel, unlinked eagerly", st)
	}
}

// TestFutureHeapSize: a heap-allocated Future[struct{}] (one per sync WAL
// append, per scan, per Spawn) must not outgrow the 64-byte size class it
// had before the waiter moved inline.
func TestFutureHeapSize(t *testing.T) {
	if n := unsafe.Sizeof(Future[struct{}]{}); n > 64 {
		t.Fatalf("Future[struct{}] is %d bytes, want at most 64", n)
	}
}
