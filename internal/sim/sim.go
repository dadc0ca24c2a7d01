// Package sim implements a deterministic discrete-event simulation kernel.
//
// Simulated activities run as cooperatively scheduled goroutines called
// processes. Exactly one process executes at a time; a process runs until it
// blocks on the kernel (Sleep, Future.Await, Resource.Acquire, Queue.Pop,
// ...) and the kernel then advances virtual time to the next pending event.
// Because scheduling is cooperative and all ties are broken by a monotonic
// sequence number, a simulation is bit-reproducible given its seed.
//
// The kernel is the substrate for the cluster, network, disk, and database
// models in this repository: service times and queueing delays accrue in
// virtual time, so latency and throughput measurements are exact and
// independent of host machine speed.
//
// Internally events live in a hierarchical timing wheel that spans all of
// virtual time, with a same-instant fast lane (see wheel.go), and process
// goroutines are pooled across process lifetimes, so both the event
// loop and process churn are allocation-free at steady state.
package sim

import (
	"fmt"
	"math/rand"
	"sort"
	"time"
)

// Time is a point in virtual time, in nanoseconds since the start of the
// simulation.
type Time int64

// Duration re-exports time.Duration for convenience; all kernel durations
// are virtual, not wall-clock.
type Duration = time.Duration

// Add returns the time d after t.
func (t Time) Add(d Duration) Time { return t + Time(d) }

// Sub returns the duration elapsed from u to t.
func (t Time) Sub(u Time) Duration { return Duration(t - u) }

// String formats the time as a duration since simulation start.
func (t Time) String() string { return Duration(t).String() }

// event is a pending kernel event: at time t, run fn. A fired event has
// fn == nil. A wheel-resident event knows its position, so cancel unlinks
// and recycles it at once; in the fast lane or the due batch (level -1) it
// is marked canceled and dropped when the scheduler reaches it.
type event struct {
	t        Time
	seq      uint64
	fn       func()
	canceled bool
	level    int8  // wheel level holding the event; -1 outside the wheel
	idx      int32 // position in that level's slot
}

// timer is a cancelable handle on a scheduled event. Event structs are
// recycled, so it carries the seq the event was scheduled under: a cancel
// after the firing, or after the struct went on to a later event, is a no-op.
type timer struct {
	e   *event
	seq uint64
}

// Stats counts what the kernel has done: events dispatched, process parks,
// AwaitTimeout deadlines armed / canceled by a Set / of those, unlinked from
// the wheel at once, and hits and misses of the event free list and of the
// process-goroutine pool. Nothing reads the counters back.
type Stats struct {
	Events, Parks                                   int64
	TimersScheduled, TimersCanceled, TimersUnlinked int64
	EventHits, EventMisses, ProcHits, ProcMisses    int64
}

// Kernel is a discrete-event simulation kernel. Create one with NewKernel,
// spawn processes with Spawn (detached fire-and-forget work: Go), and drive
// it with Run or RunUntil.
//
// A Kernel is not safe for concurrent use from multiple host goroutines;
// all interaction must happen either before Run or from within simulation
// processes.
type Kernel struct {
	now     Time
	seq     uint64
	pending int          // scheduled events that are neither fired nor canceled
	fast    ring[*event] // same-instant FIFO lane (events at exactly now)
	wheel   timerWheel
	due     []*event // drained level-0 slot for the current instant, seq order
	dueIdx  int
	free    []*event // recycled event structs (see schedule/runWindow)
	stats   Stats
	rng     *rand.Rand
	seed    int64
	live    int   // processes spawned and not yet terminated
	procs   int64 // total processes ever spawned (id source)
	yield   chan struct{}
	failed  any // panic value recovered from a process

	// workerFree pools parked process goroutines (and, for Go, their Proc
	// structs) across process lifetimes. RunUntil releases the pool when a
	// run drains, so idle kernels do not pin goroutines.
	workerFree []*procWorker

	// current is the process executing right now, nil when the kernel
	// itself runs (between events).
	current *Proc

	// windowBreak asks runWindow to return after the current event. Only
	// Shard.Send sets it, when a solo-mode window (see ShardGroup.RunUntil)
	// stages the first cross-shard message and the unbounded window must
	// end before any further event runs.
	windowBreak bool

	// inbox is the external message lane for sharded execution: cross-shard
	// messages merged in at barriers, sorted by (t, source shard, source
	// seq), consumed lazily by runWindow. inboxIdx is the first unfired
	// entry; extShard is the member shard handed to message fns. Keeping
	// messages in their own lane (instead of scheduling a wrapper closure
	// per message into the wheel) makes delivery allocation-free and — more
	// importantly — makes the execution order at each instant a fixed rule
	// ("local events first, then messages in lane order") that is
	// independent of where the window barriers happen to fall, which is
	// what lets the group widen windows adaptively without changing
	// results. Always empty for a kernel outside a multi-shard group.
	inbox    []xmsg
	inboxIdx int
	extShard *Shard

	// waiting tracks processes parked on non-timer conditions (futures,
	// resources, queues) so deadlock reports can name them.
	waiting waitRegistry
}

// NewKernel returns a kernel with virtual time zero and a deterministic
// random stream derived from seed.
func NewKernel(seed int64) *Kernel {
	return &Kernel{
		free:  make([]*event, 0, 1024),
		rng:   rand.New(rand.NewSource(seed)),
		seed:  seed,
		yield: make(chan struct{}),
	}
}

// Now returns the current virtual time.
func (k *Kernel) Now() Time { return k.now }

// Rand returns the kernel's deterministic random stream. It must only be
// used from simulation processes or before Run.
func (k *Kernel) Rand() *rand.Rand { return k.rng }

// Seed returns the seed the kernel was created with.
func (k *Kernel) Seed() int64 { return k.seed }

// Stats returns the kernel's activity counters.
func (k *Kernel) Stats() Stats { return k.stats }

// schedule enqueues fn to run at time t. Events at or before the current
// instant go to the FIFO fast lane — the dominant wake pattern
// schedule(k.now, p.wake) never touches the wheel — and later events go to
// the wheel, whatever their distance. The event struct comes from the
// kernel's free list when possible: Sleep-heavy workloads churn millions of
// events per run, and recycling them keeps the hot path allocation-free. A
// caller that may cancel the event keeps a timer{e, e.seq}, never the bare
// pointer.
//
//simlint:hotpath
func (k *Kernel) schedule(t Time, fn func()) *event {
	var e *event
	if n := len(k.free); n > 0 {
		e = k.free[n-1]
		k.free = k.free[:n-1]
		e.fn, e.canceled = fn, false
		k.stats.EventHits++
	} else {
		e = &event{fn: fn}
		k.stats.EventMisses++
	}
	e.level = -1
	e.seq = k.seq
	k.seq++
	k.pending++
	if t <= k.now {
		e.t = k.now
		k.fast.push(e)
	} else {
		e.t = t
		k.wheel.place(e, k.now)
	}
	return e
}

// recycle returns a fired or canceled event no queue holds to the free list.
//
//simlint:hotpath
func (k *Kernel) recycle(e *event) {
	e.fn = nil
	k.free = append(k.free, e)
}

// cancel kills the pending event behind tm. A wheel-resident event is
// unlinked and recycled here; elsewhere it is marked and the scheduler
// drops it on sight. Either way the pending count is updated now, so run
// loops and deadlock detection see the true number of live events.
//
//simlint:hotpath
func (k *Kernel) cancel(tm timer) {
	e := tm.e
	if e == nil || e.seq != tm.seq || e.canceled || e.fn == nil {
		return
	}
	k.pending--
	k.stats.TimersCanceled++
	if e.level >= 0 {
		k.wheel.unlink(e)
		k.recycle(e)
		k.stats.TimersUnlinked++
		return
	}
	e.canceled = true
}

// After schedules fn to run in its own short-lived context d from now.
// fn runs as kernel code (not a process): it must not block. To start
// blocking work later, spawn a process from within fn.
func (k *Kernel) After(d Duration, fn func()) { k.schedule(k.now.Add(d), fn) }

// Proc is a simulation process. Every blocking kernel operation takes the
// process as an explicit handle so that misuse (blocking from non-process
// code) is impossible to express.
type Proc struct {
	k      *Kernel
	id     int64
	name   string
	resume chan struct{} // shared with the worker goroutine running this proc
	src    *Source       // backs rng for pooled (Go) processes only; nil for Spawn
	rng    *rand.Rand
	done   *Future[struct{}] // nil for detached (Go) processes
	parked string            // what the process is blocked on, for deadlock reports

	// tctx is an opaque trace context (owned by internal/trace). It is
	// inherited by processes this one spawns, so request attribution
	// follows the causal spawn tree without the kernel knowing anything
	// about tracing.
	tctx any

	// wake is the reusable "dispatch me" closure. Every park/unpark cycle
	// schedules it, so allocating it once per process instead of once per
	// event keeps Sleep and resource handoffs off the allocator.
	wake func()

	// AwaitTimeout state. A process waits on one future at a time, so the
	// timeout callback (bound once, like wake), the handle a Set cancels,
	// the future to leave on expiry and the outcome live here instead of in
	// a closure per wait.
	expire   func()
	deadline timer
	awaiting interface{ dropWaiter(*Proc) }
	timedOut bool
}

// bind builds the callbacks every park of p reuses.
//
//simlint:coldpath
func (p *Proc) bind() {
	p.wake = func() { p.k.dispatch(p) }
	p.expire = p.fireTimeout
}

// fireTimeout runs when p's deadline passes first: p leaves the future and
// resumes inside this event, not via a scheduled wake.
//
//simlint:hotpath
func (p *Proc) fireTimeout() {
	p.deadline = timer{}
	p.timedOut = true
	p.awaiting.dropWaiter(p)
	p.awaiting = nil
	p.k.noteRunnable(p)
	p.k.dispatch(p)
}

// ID returns the process's unique id.
func (p *Proc) ID() int64 { return p.id }

// Kernel returns the kernel the process belongs to.
func (p *Proc) Kernel() *Kernel { return p.k }

// Now returns the current virtual time.
func (p *Proc) Now() Time { return p.k.now }

// Rand returns a deterministic random stream private to this process.
func (p *Proc) Rand() *rand.Rand { return p.rng }

// Done returns a future that completes when the process terminates. It is
// nil for detached processes started with Kernel.Go.
func (p *Proc) Done() *Future[struct{}] { return p.done }

// TraceCtx returns the process's opaque trace context, nil when the
// process is not attributed to any traced request.
func (p *Proc) TraceCtx() any { return p.tctx }

// SetTraceCtx replaces the process's trace context. Passing nil detaches
// the process from its inherited request attribution — long-lived daemons
// spawned from a request path (flushers, compactors, hint replayers) do
// this so their work is not billed to the op that happened to start them.
func (p *Proc) SetTraceCtx(ctx any) { p.tctx = ctx }

// procWorker is a pooled process goroutine. Spawning a goroutine plus its
// resume channel for every short-lived fan-out process is the dominant
// cost of process churn, so workers park between process lifetimes and are
// reused. Each worker also lazily owns one reusable Proc struct (pp) that
// Kernel.Go hands out: detached processes expose no handle, so recycling
// the struct is invisible.
type procWorker struct {
	k      *Kernel
	resume chan struct{}
	p      *Proc // process to run on next resume; nil means terminate
	fn     func(*Proc)
	pp     *Proc // reusable Proc for detached (Go) processes
}

//simlint:coldpath a worker's lifetime; getWorker starts one on a pool miss only
func (w *procWorker) loop() {
	for {
		<-w.resume
		if w.p == nil {
			return // pool teardown (drainPools)
		}
		w.run()
	}
}

// run executes one process lifetime on this worker.
func (w *procWorker) run() {
	k := w.k
	p := w.p
	returned := false
	defer func() {
		r := recover()
		if r != nil {
			k.failed = r
		}
		k.live--
		k.current = nil
		if p.done != nil {
			p.done.Set(struct{}{})
		}
		w.p = nil
		w.fn = nil
		// Neither returned nor panicked: fn is exiting via runtime.Goexit —
		// in practice t.Fatal or t.Skip called from inside a process. Goexit
		// runs this defer and then kills the goroutine regardless, so the
		// worker must NOT return to the pool: a later resume (reuse or
		// drainPools teardown) would block forever on a dead goroutine.
		// The kernel goroutine is blocked in dispatch until the yield send
		// below, so mutating the pool from here is race-free.
		if returned || r != nil {
			k.workerFree = append(k.workerFree, w)
		}
		k.yield <- struct{}{}
	}()
	k.current = p
	if w.fn != nil {
		w.fn(p)
	}
	returned = true
}

// getWorker pops a pooled worker or starts a fresh one.
func (k *Kernel) getWorker() *procWorker {
	if n := len(k.workerFree); n > 0 {
		w := k.workerFree[n-1]
		k.workerFree[n-1] = nil
		k.workerFree = k.workerFree[:n-1]
		k.stats.ProcHits++
		return w
	}
	k.stats.ProcMisses++
	w := &procWorker{k: k, resume: make(chan struct{})}
	go w.loop()
	return w
}

// drainPools terminates pooled worker goroutines. Called when a run
// drains: parked goroutines are never garbage-collected, and sweeps build
// hundreds of kernels, so an idle kernel must not pin its pool.
func (k *Kernel) drainPools() {
	for i, w := range k.workerFree {
		w.p = nil
		w.resume <- struct{}{}
		k.workerFree[i] = nil
	}
	k.workerFree = k.workerFree[:0]
}

// Spawn starts fn as a new process and returns its handle. The process
// begins executing at the current virtual time, after the caller blocks or
// returns to the kernel. The goroutine under the process is pooled; the
// Proc itself is freshly allocated because the handle (Done) may outlive
// the process. For fire-and-forget work that needs no handle, Go
// is cheaper.
func (k *Kernel) Spawn(name string, fn func(p *Proc)) *Proc {
	k.procs++
	w := k.getWorker()
	// Spawn keeps the stdlib ALFG source: Spawn processes are the
	// long-lived ones (client threads, server loops) whose draws shape the
	// experiment workloads, and the calibrated experiment results are pinned
	// to these exact streams. Only the pooled fire-and-forget path (Go)
	// trades it for the reseedable small-state Source — see Go.
	p := &Proc{
		k:      k,
		id:     k.procs,
		name:   name,
		resume: w.resume,
		rng:    rand.New(rand.NewSource(procSeed(k.seed, k.procs))),
	}
	if k.current != nil {
		p.tctx = k.current.tctx
	}
	p.bind()
	p.done = NewFuture[struct{}](k)
	w.p = p
	w.fn = fn
	k.live++
	k.schedule(k.now, p.wake)
	return p
}

// Go starts fn as a detached process: identical scheduling, naming, and
// per-process seed derivation to Spawn, but no handle is returned — so the
// Proc struct, its RNG, and the goroutine underneath are all recycled from
// the kernel's pool, making a steady-state Go allocation-free. This is the
// right call for the fan-out storms the database models produce (replica
// writes, read fans, pipeline legs): millions of short-lived processes
// whose Done future nobody ever awaited.
//
// Unlike Spawn, the RNG is a reseedable small-state Source (32 bytes,
// xoshiro256++) instead of the stdlib's ~5 KB warm-up-heavy ALFG — that is
// what makes recycling allocation-free. The streams are deterministic and
// procSeed-derived either way, just different generators; Go processes in
// the database models draw from theirs only off the performance paths
// (the MutationStage jitter of the cells that measure staleness).
//
// The *Proc passed to fn must not be retained after fn returns.
func (k *Kernel) Go(name string, fn func(p *Proc)) {
	k.procs++
	w := k.getWorker()
	p := w.pp
	if p == nil {
		src := NewSource(uint64(procSeed(k.seed, k.procs)))
		p = &Proc{k: k, resume: w.resume, src: src, rng: rand.New(src)}
		p.bind()
		w.pp = p
	} else {
		p.src.Reseed(uint64(procSeed(k.seed, k.procs)))
	}
	p.id = k.procs
	p.name = name
	p.done = nil
	p.parked = ""
	p.tctx = nil
	if k.current != nil {
		p.tctx = k.current.tctx
	}
	w.p = p
	w.fn = fn
	k.live++
	k.schedule(k.now, p.wake)
}

// procSeed derives the RNG seed for process id from the kernel seed using a
// full splitmix64 finalizer. A plain xor of seed with id*constant (and in
// particular `id*C>>1`, which shifts after the multiply) leaves neighbouring
// process ids with correlated low bits; the finalizer's xor-shift-multiply
// rounds diffuse every input bit across the whole output word.
func procSeed(seed, id int64) int64 {
	x := uint64(seed) + (uint64(id) * 0x9e3779b97f4a7c15)
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return int64(x ^ (x >> 31))
}

// dispatch hands control to p until it parks or terminates.
//
//simlint:hotpath
func (k *Kernel) dispatch(p *Proc) {
	k.current = p
	p.resume <- struct{}{}
	<-k.yield
	if k.failed != nil {
		panic(k.failed)
	}
}

// park blocks the calling process until something dispatches it again.
// why describes what the process is waiting on (used in deadlock reports).
// The label must be a static string — see Sleep.
//
//simlint:hotpath
func (p *Proc) park(why string) {
	p.k.stats.Parks++
	p.parked = why
	p.k.current = nil
	p.k.yield <- struct{}{}
	<-p.resume
	p.parked = ""
	p.k.current = p
}

// Sleep suspends the process for d of virtual time.
//
// The park label is the static string "sleep" rather than a formatted
// "sleep(5ms)": sleeping processes always have a pending wake event, so they
// can never appear in a deadlock report, and formatting the label on every
// park was the single largest allocation in the kernel's hot path. The
// //simlint:hotpath marker makes simlint reject defer, closures, fmt,
// string concatenation, and interface boxing here, so the 0 allocs/op of
// the benchmark's sim.sleep rung is enforced at build time, not just
// measured.
//
//simlint:hotpath
func (p *Proc) Sleep(d Duration) {
	if d < 0 {
		d = 0
	}
	p.k.schedule(p.k.now.Add(d), p.wake)
	p.park("sleep")
}

// DeadlockError reports that the simulation can make no further progress
// while processes are still live.
type DeadlockError struct {
	Time Time
	// Blocked lists the live processes and what each is waiting on.
	Blocked []string
}

func (e *DeadlockError) Error() string {
	return fmt.Sprintf("sim: deadlock at %v: %d process(es) blocked: %v",
		e.Time, len(e.Blocked), e.Blocked)
}

// Run executes events until the queue is empty. It returns a *DeadlockError
// if live processes remain blocked with no pending events, and nil when the
// simulation drained cleanly. A panic inside a process propagates to the
// caller of Run.
func (k *Kernel) Run() error { return k.RunUntil(Time(1<<63 - 1)) }

// RunUntil executes events with time ≤ limit. Events beyond the limit stay
// queued, and reaching the limit is not a deadlock; a limit already past
// runs nothing and leaves the clock where it is.
func (k *Kernel) RunUntil(limit Time) error {
	k.runWindow(limit)
	if k.pending > 0 {
		return nil
	}
	if k.live > 0 {
		return &DeadlockError{Time: k.now, Blocked: k.blockedNames()}
	}
	k.drainPools()
	return nil
}

// runWindow is the kernel event loop: everything inside the for is the
// hottest code in the repository, and the //simlint:hotpath marker keeps it
// allocation-free by construction (no defer, closures, fmt, string
// concatenation, or interface boxing). It executes events with time ≤
// limit and never moves k.now backward. Deadlock detection and draining
// the worker pool are the caller's: RunUntil's for a plain kernel,
// ShardGroup.finish's for a group member, where reaching the limit with
// live processes and no local events is not a deadlock (a cross-shard
// message may still arrive). A member also interleaves the external
// message lane (k.inbox), empty outside a multi-shard group, with local
// events.
//
// The lane rule: at each instant, local events run before lane messages,
// and messages fire in lane order; work a message schedules at its own
// instant goes to the fast lane and runs before the next message. A lane
// message at time t only ever arrives while the kernel is strictly before
// t (the conservative window guarantee), so this order is a pure function
// of the model — no matter how the group chops execution into windows.
//
//simlint:hotpath
func (k *Kernel) runWindow(limit Time) {
	if k.now > limit {
		return
	}
	k.windowBreak = false
	for k.pending > 0 {
		popTo := limit
		msgDue := false
		if k.inboxIdx < len(k.inbox) {
			if mt := k.inbox[k.inboxIdx].t; mt <= limit {
				popTo, msgDue = mt, true
			}
		}
		e := k.pop(popTo)
		if e == nil {
			if !msgDue {
				return
			}
			// No local event at or before the lane head: fire the message.
			// pop may have left now short of the message time when the
			// wheel ran dry, so clamp forward explicitly.
			if k.now < popTo {
				k.now = popTo
			}
			m := &k.inbox[k.inboxIdx]
			k.inboxIdx++
			k.pending--
			k.stats.Events++
			mfn := m.fn
			m.fn = nil
			//simlint:ignore hookguard Send rejects nil fns at enqueue, so every lane message carries one
			mfn(k.extShard)
			if k.windowBreak {
				k.windowBreak = false
				return
			}
			continue
		}
		fn := e.fn
		k.pending--
		k.stats.Events++
		k.recycle(e)
		// Every scheduled event carries a fn (schedule never stores nil);
		// a nil here is kernel corruption, and the panic is the best
		// possible report — a nil guard would silently drop the event.
		//simlint:ignore hookguard event fns are set by schedule; nil means kernel corruption and must panic
		fn()
		if k.windowBreak {
			k.windowBreak = false
			return
		}
	}
}

// nextPendingBound returns a lower bound on the time of the earliest
// pending event, and whether any event is pending at all. The bound is
// exact for fast-lane and due-batch events; for wheel events it is the
// occupied slot's lower bound, which is never later than the event itself
// — good enough for a conservative window start.
func (k *Kernel) nextPendingBound() (Time, bool) {
	if k.pending == 0 {
		return 0, false
	}
	if k.dueIdx < len(k.due) || k.fast.len() > 0 {
		return k.now, true
	}
	t := Time(1<<63 - 1)
	if k.wheel.count > 0 {
		_, t = k.wheel.next(k.now)
	}
	// Undelivered lane messages are pending work too, and their times are
	// exact (the lane is sorted, so the head is the earliest).
	if k.inboxIdx < len(k.inbox) && k.inbox[k.inboxIdx].t < t {
		t = k.inbox[k.inboxIdx].t
	}
	return t, true
}

// blockedNames formats the parked-process inventory for DeadlockError.
// It runs once, after the event loop has already failed — a sanctioned
// allocation boundary off runWindow's hot path.
//
//simlint:coldpath
func (k *Kernel) blockedNames() []string {
	// The kernel does not keep a registry of all processes (they are
	// reachable from their own goroutines only), so report count-level
	// information plus the names gathered through parked labels captured
	// at park time via the wait registry.
	names := make([]string, 0, len(k.waiting))
	for p := range k.waiting {
		names = append(names, fmt.Sprintf("%s(%s)", p.name, p.parked))
	}
	sort.Strings(names)
	return names
}

// waitRegistry records processes parked on futures, resources and queues.
// Timer-based parks (Sleep) always have a pending event and never deadlock.
type waitRegistry = map[*Proc]struct{}

func (k *Kernel) noteWaiting(p *Proc) {
	if k.waiting == nil {
		k.waiting = make(waitRegistry)
	}
	k.waiting[p] = struct{}{}
}

func (k *Kernel) noteRunnable(p *Proc) {
	delete(k.waiting, p)
}
