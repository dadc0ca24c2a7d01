package sim

import "slices"

// Future is a single-assignment cell that processes can block on. The first
// Set wins; later Sets are ignored, which makes futures convenient for
// racing a result against a timeout or a failure signal.
//
// A Future may be embedded by value in a longer-lived struct and re-armed
// with Init; its first waiter is stored inline, so the usual one-waiter wait
// allocates nothing. It must not be copied while in use.
type Future[T any] struct {
	k      *Kernel
	done   bool
	val    T
	waiter *Proc   // first parked process
	more   []*Proc // later ones, in arrival order
}

// NewFuture returns an unset future bound to k.
func NewFuture[T any](k *Kernel) *Future[T] {
	return &Future[T]{k: k}
}

// Init makes f an unset future bound to k, forgetting any earlier value: it
// is how a future embedded in a pooled struct starts each use. No process
// may be parked on it.
func (f *Future[T]) Init(k *Kernel) {
	if f.waiter != nil {
		panic("sim: Init of a future that processes are parked on")
	}
	*f = Future[T]{k: k, more: f.more}
}

// Value returns the future's value and whether it has been set.
func (f *Future[T]) Value() (T, bool) { return f.val, f.done }

// Set completes the future with v, waking all waiters. Setting an
// already-set future is a no-op.
//
//simlint:hotpath
func (f *Future[T]) Set(v T) {
	if f.done {
		return
	}
	f.done = true
	f.val = v
	if f.waiter != nil {
		f.wake(f.waiter)
		f.waiter = nil
	}
	for _, p := range f.more {
		f.wake(p)
	}
	clear(f.more)
	f.more = f.more[:0]
}

// wake makes the parked waiter p runnable, disarming its deadline if any.
func (f *Future[T]) wake(p *Proc) {
	if p.deadline.e != nil {
		f.k.cancel(p.deadline)
		p.deadline, p.awaiting = timer{}, nil
	}
	f.k.noteRunnable(p)
	f.k.wakeAt(f.k.now, p)
}

// enqueue queues p, about to park, behind the processes already waiting.
func (f *Future[T]) enqueue(p *Proc) {
	if f.waiter == nil {
		f.waiter = p
	} else {
		f.more = append(f.more, p)
	}
	f.k.noteWaiting(p)
}

// dropWaiter takes p, whose deadline fired, out of the queue; the others
// keep their order.
func (f *Future[T]) dropWaiter(p *Proc) {
	if f.waiter == p {
		if len(f.more) == 0 {
			f.waiter = nil
			return
		}
		f.waiter, p = f.more[0], f.more[0] // promote the second in line
	}
	i := slices.Index(f.more, p)
	f.more = slices.Delete(f.more, i, i+1)
}

// Await blocks p until the future is set and returns its value.
//
//simlint:hotpath
func (f *Future[T]) Await(p *Proc) T {
	if f.done {
		return f.val
	}
	f.enqueue(p)
	p.park("future")
	return f.val
}

// AwaitTimeout blocks p until the future is set or d elapses. The second
// result reports whether the future was set in time.
//
//simlint:hotpath
func (f *Future[T]) AwaitTimeout(p *Proc, d Duration) (T, bool) {
	if f.done {
		return f.val, true
	}
	e := f.k.wakeAt(f.k.now.Add(d), p)
	e.expire = true
	f.k.stats.TimersScheduled++
	p.deadline, p.awaiting, p.timedOut = timer{e, e.seq}, f, false
	f.enqueue(p)
	p.park("future-timeout")
	if p.timedOut {
		var zero T
		return zero, false
	}
	return f.val, true
}
