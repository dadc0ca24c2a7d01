package sim

// Queue is an unbounded FIFO mailbox. Push never blocks and may be called
// from kernel context (e.g. a Kernel.After callback); Pop blocks the calling
// process until an item is available. It is the standard way to feed a
// server process.
//
// Items and waiters live in growable ring buffers: the hot Push/Pop cycle
// of a loaded server process is allocation-free at steady state.
type Queue[T any] struct {
	k       *Kernel
	items   ring[T]
	waiters ring[*Proc]
}

// NewQueue returns an empty queue bound to k.
func NewQueue[T any](k *Kernel) *Queue[T] {
	return &Queue[T]{k: k}
}

// Len returns the number of buffered items.
func (q *Queue[T]) Len() int { return q.items.len() }

// Push appends v and wakes one waiting process, if any.
//
//simlint:hotpath
func (q *Queue[T]) Push(v T) {
	q.items.push(v)
	if q.waiters.len() > 0 {
		p := q.waiters.pop()
		q.k.noteRunnable(p)
		q.k.wakeAt(q.k.now, p)
	}
}

// Pop blocks p until an item is available and removes and returns it.
//
//simlint:hotpath
func (q *Queue[T]) Pop(p *Proc) T {
	for q.items.len() == 0 {
		q.waiters.push(p)
		q.k.noteWaiting(p)
		p.park("queue")
	}
	v := q.items.pop()
	// If items remain and more waiters are parked, keep the chain going:
	// a single Push wakes one waiter, but a waiter woken spuriously after
	// another consumer raced it must not strand buffered items.
	q.wakeNext()
	return v
}

// wakeNext continues the wake chain when buffered items and parked waiters
// coexist.
//
//simlint:hotpath
func (q *Queue[T]) wakeNext() {
	if q.items.len() > 0 && q.waiters.len() > 0 {
		next := q.waiters.pop()
		q.k.noteRunnable(next)
		q.k.wakeAt(q.k.now, next)
	}
}

// TryPop removes and returns the head item without blocking. ok reports
// whether an item was available.
func (q *Queue[T]) TryPop() (v T, ok bool) {
	if q.items.len() == 0 {
		return v, false
	}
	return q.items.pop(), true
}
