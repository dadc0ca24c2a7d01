// Package blockfree is golden-test input for the blockfree analyzer.
package blockfree

import (
	"os"
	"sync"
	"time"

	"cloudbench/internal/lint/testdata/src/blockfree/sim"
)

func okParkPoints(k *sim.Kernel, fut *sim.Future) {
	k.Spawn("server", func(p *sim.Proc) { // ok: virtual waits through sim park points
		p.Sleep(10)
		fut.Await(p)
	})
}

func okCleanHelper(k *sim.Kernel, keys []string) {
	k.Go("loader", func(p *sim.Proc) { // ok: the helper does pure computation
		_ = countKeys(keys)
	})
}

func countKeys(keys []string) int {
	n := 0
	for range keys {
		n++
	}
	return n
}

func badSleep(k *sim.Kernel) {
	k.Spawn("server", func(p *sim.Proc) { // want `process body may block the OS thread: time\.Sleep \(directly in the body\)`
		time.Sleep(time.Millisecond)
	})
}

// badTwoFramesDeep blocks two helper frames below the process body: the
// syntactic layer sees nothing, the call-graph walk does.
func badTwoFramesDeep(k *sim.Kernel, ch chan int) {
	k.Spawn("drain", func(p *sim.Proc) { // want `process body may block the OS thread: bare channel receive \(via blockfree\.drainOuter → blockfree\.drainInner\)`
		drainOuter(ch)
	})
}

func drainOuter(ch chan int) { drainInner(ch) }

func drainInner(ch chan int) { <-ch }

func badMutex(k *sim.Kernel, mu *sync.Mutex) {
	k.Go("locker", func(p *sim.Proc) { // want `process body may block the OS thread: sync\.Mutex\.Lock \(directly in the body\)`
		mu.Lock()
	})
}

func badEventCallback(k *sim.Kernel, ch chan int) {
	k.After(5, func() { // want `event callback body may block the OS thread: bare channel send \(directly in the body\)`
		ch <- 1
	})
}

func badDelivery(s *sim.Shard, ch chan int) {
	s.Send(1, 10, func(ds *sim.Shard) { // want `cross-shard delivery body may block the OS thread: select over host channels \(directly in the body\)`
		select {
		case <-ch:
		default:
		}
	})
}

func badRangeChan(k *sim.Kernel, ch chan int) {
	k.Go("ranger", func(p *sim.Proc) { // want `process body may block the OS thread: range over a host channel \(directly in the body\)`
		for v := range ch {
			_ = v
		}
	})
}

func badOSIO(k *sim.Kernel) {
	k.Go("io", func(p *sim.Proc) { // want `process body may block the OS thread: os\.ReadFile \(OS I/O\) \(directly in the body\)`
		_, _ = os.ReadFile("/etc/hosts")
	})
}

// badNamedFunc hands the kernel a named function rather than a literal.
func badNamedFunc(k *sim.Kernel) {
	k.Spawn("worker", napWorker) // want `process body may block the OS thread: time\.Sleep \(directly in the body\)`
}

func napWorker(p *sim.Proc) { time.Sleep(time.Second) }

// badStoredBody stores the body in a variable first; the flow table
// resolves which closures the variable can hold.
func badStoredBody(k *sim.Kernel, ch chan int) {
	body := func(p *sim.Proc) { <-ch }
	k.Go("stored", body) // want `process body may block the OS thread: bare channel receive \(directly in the body\)`
}

// --- function values the kernel's callers hand around: each body below
// blocks only through a value it calls, never by name. ---

// badParamBody: the spawned body calls a func-typed parameter, as a
// deployment's run hands its driver the measured phases.
func badParamBody(k *sim.Kernel, ch chan int) {
	runDriver(k, func(p *sim.Proc) { hostWait(ch) })
}

func runDriver(k *sim.Kernel, body func(p *sim.Proc)) {
	k.Spawn("driver", func(p *sim.Proc) { // want `process body may block the OS thread: bare channel receive \(via .+ → blockfree\.hostWait\)`
		p.Sleep(1)
		body(p)
	})
}

func hostWait(ch chan int) { <-ch }

// badFieldHook: the body calls a func-typed struct field set at
// construction, as a deployment calls its flush hook.
type driver struct {
	k     *sim.Kernel
	flush func()
}

func badFieldHook(k *sim.Kernel, mu *sync.Mutex) {
	d := &driver{k: k, flush: func() { hostLock(mu) }}
	d.start()
}

func (d *driver) start() {
	d.k.Go("flusher", func(p *sim.Proc) { // want `process body may block the OS thread: sync\.Mutex\.Lock \(via .+ → blockfree\.hostLock\)`
		if d.flush != nil {
			d.flush()
		}
	})
}

func hostLock(mu *sync.Mutex) { mu.Lock() }

// badEventList: the body calls the Fn of an element of a slice of event
// structs carried in a config, as the YCSB runner fires its events.
type runEvent struct {
	afterOps int
	fn       func()
}

type runConfig struct {
	events []runEvent
}

func badEventList(k *sim.Kernel) {
	runEvents(k, runConfig{events: []runEvent{{afterOps: 1, fn: func() { hostNap() }}}})
}

func runEvents(k *sim.Kernel, cfg runConfig) {
	k.Go("events", func(p *sim.Proc) { // want `process body may block the OS thread: time\.Sleep \(via .+ → blockfree\.hostNap\)`
		for next := 0; next < len(cfg.events); next++ {
			if fn := cfg.events[next].fn; fn != nil {
				fn()
			}
		}
	})
}

func hostNap() { time.Sleep(time.Millisecond) }

// badInvokedLiteral: a literal invoked where it is written is a callee
// like any other, whether called at once or deferred.
func badInvokedLiteral(k *sim.Kernel, ch chan int) {
	k.Go("invoked", func(p *sim.Proc) { // want `process body may block the OS thread: bare channel receive \(via [^)]+\)`
		func() { <-ch }()
	})
}

func badDeferredLiteral(k *sim.Kernel, mu *sync.Mutex) {
	k.Go("deferred", func(p *sim.Proc) { // want `process body may block the OS thread: sync\.Mutex\.Lock \(via [^)]+\)`
		defer func() { mu.Lock() }()
		p.Sleep(1)
	})
}

// badGenericHelper: an explicit instantiation is a static call of the
// generic function.
func badGenericHelper(k *sim.Kernel, ch chan int) {
	k.Go("generic", func(p *sim.Proc) { // want `process body may block the OS thread: bare channel receive \(via blockfree\.drainAll\)`
		drainAll[int](ch)
	})
}

func drainAll[T any](ch chan T) { <-ch }

// badEmbeddedInterface: a method promoted from an embedded interface is
// an interface call, resolved by CHA like any other.
type waiter interface{ wait() }

type hostWaiter struct{ ch chan int }

func (w *hostWaiter) wait() { <-w.ch }

type session struct{ waiter }

func badEmbeddedInterface(k *sim.Kernel, s session) {
	k.Go("session", func(p *sim.Proc) { // want `process body may block the OS thread: bare channel receive \(via \(blockfree\.hostWaiter\)\.wait\)`
		s.wait()
	})
}

func suppressedWallClockBridge(k *sim.Kernel) {
	//simlint:ignore blockfree wall-clock bridge prototype, runs outside the DES workers
	k.Spawn("bridge", func(p *sim.Proc) {
		time.Sleep(time.Millisecond)
	})
}
