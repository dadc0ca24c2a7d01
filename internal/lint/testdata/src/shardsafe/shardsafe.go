// Package shardsafe is golden-test input for the shardsafe analyzer.
package shardsafe

import (
	"cloudbench/internal/lint/testdata/src/shardsafe/sim"
)

type segment struct {
	shard *sim.Shard
	name  string
}

func okPlainData(s *sim.Shard, key string, n int) {
	log := []string{}
	s.Send(1, 10, func(ds *sim.Shard) { // ok: captures only plain data
		_ = key
		_ = n
		_ = log
	})
}

func okDestinationState(s *sim.Shard) {
	s.Send(1, 10, func(ds *sim.Shard) { // ok: destination reached through the delivered shard
		ds.Kernel().Go("worker", func(p *sim.Proc) {})
		ds.Send(0, 10, func(*sim.Shard) {})
	})
}

type record struct {
	key string
	n   int
}

func okPlainStruct(s *sim.Shard, r *record) {
	s.Send(1, 10, func(ds *sim.Shard) {
		_ = r.key // ok: nothing kernel-shaped is reachable from r
	})
}

func okStoredClosure(s *sim.Shard, key string) {
	relay := func(ds *sim.Shard) { _ = key }
	s.Send(1, 10, relay) // ok: stored closure carries only plain data
}

func badShardCapture(s *sim.Shard) {
	s.Send(1, 10, func(ds *sim.Shard) {
		_ = s.ID() // want `captures \*sim\.Shard "s" from the sending shard`
	})
}

func badProcCapture(s *sim.Shard, p *sim.Proc) {
	s.Send(1, 10, func(*sim.Shard) {
		_ = p // want `captures \*sim\.Proc "p" from the sending shard`
	})
}

func badKernelCapture(s *sim.Shard) {
	k := s.Kernel()
	s.Send(1, 10, func(*sim.Shard) {
		_ = k // want `captures \*sim\.Kernel "k" from the sending shard`
	})
}

func badGroupCapture(s *sim.Shard, g *sim.ShardGroup) {
	s.Send(1, 10, func(*sim.Shard) {
		g.Shard(0) // want `captures \*sim\.ShardGroup "g" from the sending shard`
	})
}

// badStructLaunder touches only the plain field, but the captured struct
// still carries the shard one dereference away: the type walk follows
// every reachable field, not just the ones the closure mentions.
func badStructLaunder(s *sim.Shard, seg *segment) {
	s.Send(1, 10, func(ds *sim.Shard) {
		_ = seg.name // want `reaches a \*sim\.Shard from the sending shard through captured "seg" \(seg\.shard\)`
	})
}

// badInterfaceBox launders the shard through an interface: no banned type
// appears in the closure, but the box the solver tracked does.
func badInterfaceBox(s *sim.Shard) {
	var x any = s
	s.Send(1, 10, func(ds *sim.Shard) {
		_ = x // want `reaches a \*sim\.Shard from the sending shard through captured "x" \(x\)`
	})
}

// badSliceShare shares sending-side shards through a slice element.
func badSliceShare(s *sim.Shard) {
	peers := []*sim.Shard{s}
	s.Send(1, 10, func(ds *sim.Shard) {
		_ = len(peers) // want `reaches a \*sim\.Shard from the sending shard through captured "peers" \(peers\[i\]\)`
	})
}

// badMapValue escapes a shard through a map value.
func badMapValue(s *sim.Shard) {
	m := map[string]*sim.Shard{"self": s}
	s.Send(1, 10, func(ds *sim.Shard) {
		_ = m // want `reaches a \*sim\.Shard from the sending shard through captured "m" \(m\[val\]\)`
	})
}

// badStoredClosure passes a pre-built closure variable as the payload;
// the syntactic layer never sees its captures, the type walk does.
func badStoredClosure(s *sim.Shard) {
	relay := func(ds *sim.Shard) { _ = s.ID() }
	s.Send(1, 10, relay) // want `reaches a \*sim\.Shard from the sending shard \(relay captures s\)`
}

func badSmuggledShardField(s *sim.Shard, seg *segment) {
	s.Send(1, 10, func(*sim.Shard) {
		_ = seg.shard // want `reaches a \*sim\.Shard through a captured value`
	})
}

func badMethodValue(s, other *sim.Shard) {
	s.Send(1, 10, other.Handle) // want `method bound to a \*sim\.Shard on the sending side`
}

// badInterfaceCapture: the closure captures an interface; the concrete
// value assigned to it holds the sending shard's kernel.
type runner interface{ Run() }

type kernelWorker struct{ k *sim.Kernel }

func (w *kernelWorker) Run() {}

func badInterfaceCapture(s *sim.Shard) {
	var r runner = &kernelWorker{k: s.Kernel()}
	s.Send(1, 10, func(*sim.Shard) {
		r.Run() // want `reaches a \*sim\.Kernel from the sending shard through captured "r" \(r\.k\)`
	})
}

// Two instantiations of one generic reply future, as a remote read ships
// its reply home: a payload holding a sending-side process is a leak, and
// a plain payload carried by the same generic type is not. reply is
// declared here, so the walk sees all of it; sim.Future below is a kernel
// handle, whose val is its only payload field.
type reply[T any] struct {
	val  T
	done bool
}

func newReply[T any]() *reply[T] { return &reply[T]{} }

func (r *reply[T]) set(v T) { r.val, r.done = v, true }

type wakeReply struct{ p *sim.Proc }

type plainReply struct {
	rec []string
	err error
}

func badProcReply(s *sim.Shard, p *sim.Proc) {
	r := newReply[wakeReply]()
	r.set(wakeReply{p: p})
	s.Send(1, 10, func(*sim.Shard) {
		_ = r.done // want `reaches a \*sim\.Proc from the sending shard through captured "r" \(r\.val\.p\)`
	})
}

func okPlainReply(s *sim.Shard, key string) {
	r := newReply[plainReply]()
	s.Send(1, 10, func(*sim.Shard) {
		r.set(plainReply{rec: []string{key}}) // ok: this instantiation's payload is plain data
	})
}

func badProcReplyFuture(s *sim.Shard, p *sim.Proc) {
	fut := sim.NewFuture[wakeReply](s.Kernel())
	fut.Set(wakeReply{p: p})
	s.Send(1, 10, func(*sim.Shard) {
		_, _ = fut.Value() // want `reaches a \*sim\.Proc from the sending shard through captured "fut" \(fut\.val\.p\)`
	})
}

func okPlainReplyFuture(s *sim.Shard, key string) {
	fut := sim.NewFuture[plainReply](s.Kernel())
	s.Send(1, 10, func(*sim.Shard) {
		fut.Set(plainReply{rec: []string{key}}) // ok: this instantiation's payload is plain data
	})
}

func suppressedCapture(s *sim.Shard) {
	s.Send(1, 10, func(*sim.Shard) {
		//simlint:ignore shardsafe single-threaded bring-up harness, shards never run concurrently here
		_ = s.ID()
	})
}
