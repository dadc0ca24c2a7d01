package sim

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"time"
)

// dispatchOrderGolden is the sha256 of the 64 scripts' logs below, recorded
// on the two-switch kernel (every dispatch a round trip through the event
// loop's own goroutine). Any kernel change that keeps the dispatch order —
// which process runs at which instant, after which event — reproduces it.
const dispatchOrderGolden = "781bbface394d481894451ba28c7bf1bf29e93ba27cbc978735446e4859a0578"

// The script operations a process (or an After callback, for the subset
// marked) performs.
const (
	dSleep        = iota // Sleep(d), d may be 0
	dSet                 // Future.Set (callbacks too)
	dAwait               // Future.Await
	dAwaitTimeout        // Future.AwaitTimeout(d)
	dUse                 // Resource.Acquire, Sleep(d), Release
	dPush                // Queue.Push (callbacks too)
	dPop                 // Queue.Pop
	dAfter               // Kernel.After(d, callback)
	dSpawn               // Spawn a child and sometimes join it; Go a detached one (callbacks too)
	dRand                // one draw from the process's own stream
	dOps
)

type dStep struct {
	op       int
	arg      int // future, resource or queue index
	val      int // value to Set or Push
	d        Duration
	detached bool // dSpawn: Go instead of Spawn
	join     bool // dSpawn: await the spawned child's Done
	child    *dProg
}

type dProg struct{ steps []dStep }

// dWeights skews the draw toward steps that wake others (sets, pushes,
// callbacks) over steps that wait, so most waits end before the release at
// 1 s rather than at it.
var dWeights = [dOps]int{dSleep: 3, dSet: 2, dAwait: 1, dAwaitTimeout: 2, dUse: 3, dPush: 3, dPop: 1, dAfter: 2, dSpawn: 2, dRand: 1}

// dDurations are the delays scripts draw from: zero twice as often as any
// other, so same-instant wakes (the self-dispatch case) are common.
var dDurations = []Duration{0, 0, time.Microsecond, 3 * time.Microsecond, 10 * time.Microsecond, time.Millisecond}

const dFutures, dResources, dQueues = 3, 2, 2

// genDProg draws a process script; depth bounds how deep spawns nest.
func genDProg(r *rand.Rand, depth int) *dProg {
	total := 0
	for _, w := range dWeights {
		total += w
	}
	n := 4 + r.Intn(10)
	p := &dProg{steps: make([]dStep, n)}
	for i := range p.steps {
		op, x := 0, r.Intn(total)
		for x >= dWeights[op] {
			x -= dWeights[op]
			op++
		}
		s := dStep{op: op, d: dDurations[r.Intn(len(dDurations))], val: r.Intn(1000)}
		switch s.op {
		case dSet, dAwait, dAwaitTimeout:
			s.arg = r.Intn(dFutures)
		case dUse:
			s.arg = r.Intn(dResources)
		case dPush, dPop:
			s.arg = r.Intn(dQueues)
		case dAfter:
			// A callback runs one non-blocking step.
			s.arg = []int{dSet, dPush, dSpawn}[r.Intn(3)]
			s.val = r.Intn(dQueues * dFutures)
		}
		if s.op == dSpawn || (s.op == dAfter && s.arg == dSpawn) {
			if depth == 0 {
				s.op = dRand
			} else {
				s.detached = r.Intn(2) == 0
				s.join = !s.detached && r.Intn(2) == 0
				s.child = genDProg(r, depth-1)
			}
		}
		p.steps[i] = s
	}
	return p
}

// pops counts the Pop steps a script and the children it spawns execute.
func (g *dProg) pops() int {
	n := 0
	for _, s := range g.steps {
		if s.op == dPop {
			n++
		}
		if s.child != nil {
			n += s.child.pops()
		}
	}
	return n
}

// dWorld is one script's shared state and log.
type dWorld struct {
	k    *Kernel
	futs [dFutures]*Future[int]
	res  [dResources]*Resource
	qs   [dQueues]*Queue[int]
	log  strings.Builder
}

func (w *dWorld) logf(p *Proc, step int, format string, args ...any) {
	id := int64(-1) // an After callback: kernel context
	if p != nil {
		id = p.ID()
	}
	fmt.Fprintf(&w.log, "%d %d %d ", w.k.Now(), id, step)
	fmt.Fprintf(&w.log, format, args...)
	w.log.WriteByte('\n')
}

func (w *dWorld) start(g *dProg, detached bool) *Proc {
	body := func(p *Proc) {
		w.logf(p, -1, "start tctx=%v", p.TraceCtx())
		p.SetTraceCtx(p.ID())
		w.run(p, g)
	}
	if detached {
		w.k.Go("script", body)
		return nil
	}
	return w.k.Spawn("script", body)
}

func (w *dWorld) run(p *Proc, g *dProg) {
	for i, s := range g.steps {
		switch s.op {
		case dSleep:
			p.Sleep(s.d)
			w.logf(p, i, "slept %v", s.d)
		case dSet:
			w.futs[s.arg].Set(s.val)
			w.logf(p, i, "set f%d=%d", s.arg, s.val)
		case dAwait:
			v := w.futs[s.arg].Await(p)
			w.logf(p, i, "await f%d=%d", s.arg, v)
		case dAwaitTimeout:
			v, ok := w.futs[s.arg].AwaitTimeout(p, s.d)
			w.logf(p, i, "awaittimeout f%d=%d,%v", s.arg, v, ok)
		case dUse:
			w.res[s.arg].Acquire(p)
			w.logf(p, i, "acquired r%d", s.arg)
			p.Sleep(s.d)
			w.res[s.arg].Release()
			w.logf(p, i, "released r%d", s.arg)
		case dPush:
			w.qs[s.arg].Push(s.val)
			w.logf(p, i, "push q%d=%d", s.arg, s.val)
		case dPop:
			v := w.qs[s.arg].Pop(p)
			w.logf(p, i, "pop q%d=%d", s.arg, v)
		case dAfter:
			w.logf(p, i, "after %v", s.d)
			w.k.After(s.d, func() { w.callback(i, s) })
		case dSpawn:
			c := w.start(s.child, s.detached)
			w.logf(p, i, "spawn detached=%v", s.detached)
			if s.join {
				c.Done().Await(p)
				w.logf(p, i, "joined %d", c.ID())
			}
		case dRand:
			w.logf(p, i, "rand %d", p.Rand().Intn(1000))
		}
	}
}

// callback is an After step's body: kernel code, so it never blocks.
func (w *dWorld) callback(i int, s dStep) {
	switch s.arg {
	case dSet:
		f := s.val % dFutures
		w.futs[f].Set(s.val)
		w.logf(nil, i, "cb set f%d=%d", f, s.val)
	case dPush:
		q := s.val % dQueues
		w.qs[q].Push(s.val)
		w.logf(nil, i, "cb push q%d=%d", q, s.val)
	case dSpawn:
		w.start(s.child, s.detached)
		w.logf(nil, i, "cb spawn detached=%v", s.detached)
	}
}

// runDispatchScript runs script i and returns its log: every step of every
// process as (now, proc id, step), then the final clock and event and park
// counts.
func runDispatchScript(t *testing.T, i int) string {
	r := rand.New(rand.NewSource(int64(i)))
	w := &dWorld{k: NewKernel(int64(i))}
	for j := range w.futs {
		w.futs[j] = NewFuture[int](w.k)
	}
	for j := range w.res {
		w.res[j] = NewResource(w.k, fmt.Sprint("r", j), 1+j)
	}
	for j := range w.qs {
		w.qs[j] = NewQueue[int](w.k)
	}
	roots := make([]*dProg, 3+r.Intn(4))
	pops := 0
	for j := range roots {
		roots[j] = genDProg(r, 2)
		pops += roots[j].pops()
		w.start(roots[j], r.Intn(2) == 0)
	}
	// Late enough that every script is blocked or done by then: set every
	// future and give each queue one item per Pop step, so no process is
	// left waiting and the run drains.
	w.k.After(time.Second, func() {
		for j, f := range w.futs {
			f.Set(-1 - j)
		}
		for _, q := range w.qs {
			for n := 0; n < pops; n++ {
				q.Push(-1)
			}
		}
		w.logf(nil, -1, "release")
	})
	if err := w.k.Run(); err != nil {
		t.Fatalf("script %d: %v", i, err)
	}
	st := w.k.Stats()
	fmt.Fprintf(&w.log, "end %d events=%d parks=%d\n", w.k.Now(), st.Events, st.Parks)
	return w.log.String()
}

// TestDispatchOrderGolden pins the kernel's dispatch order: 64 seeded
// random scripts of spawns, sleeps, futures, resources, queues and After
// callbacks, each logging every step it takes, hashed together against
// the digest recorded before the event loop moved onto the process
// goroutines.
func TestDispatchOrderGolden(t *testing.T) {
	h := sha256.New()
	for i := 0; i < 64; i++ {
		log := runDispatchScript(t, i)
		fmt.Fprintf(h, "script %d\n%s", i, log)
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != dispatchOrderGolden {
		t.Fatalf("dispatch-order digest = %s, want %s", got, dispatchOrderGolden)
	}
}
