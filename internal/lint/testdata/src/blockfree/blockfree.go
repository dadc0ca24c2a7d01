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

// badStoredBody stores the body in a variable first; the points-to engine
// resolves which closures the variable can hold.
func badStoredBody(k *sim.Kernel, ch chan int) {
	body := func(p *sim.Proc) { <-ch }
	k.Go("stored", body) // want `process body may block the OS thread: bare channel receive \(directly in the body\)`
}

func suppressedWallClockBridge(k *sim.Kernel) {
	//simlint:ignore blockfree wall-clock bridge prototype, runs outside the DES workers
	k.Spawn("bridge", func(p *sim.Proc) {
		time.Sleep(time.Millisecond)
	})
}
