package sim

import (
	"fmt"
	"sort"
)

// Sharded conservative parallel execution.
//
// A ShardGroup runs one simulation as N member kernels (shards), each with
// its own timing wheel, worker pool, and RNG streams, so independent
// regions of the model execute on separate host cores. Synchronization is
// the classic conservative time-window scheme, made null-message-free by a
// global barrier:
//
//	window     — all shards execute events in [W, W+L) concurrently, where
//	             W is the minimum next-event time across shards and L is
//	             the lookahead (the minimum cross-shard delivery latency,
//	             which the model supplies — megascale takes it from its
//	             WAN chain).
//	barrier    — shards stop at the window end; staged cross-shard
//	             messages are merged into their destination kernels; the
//	             next window starts at the new global minimum.
//	lockstep   — with zero lookahead the window degenerates to a single
//	             instant: shards still run concurrently within the
//	             instant (messages become visible only at the barrier),
//	             but no shard may run ahead of another in virtual time.
//
// Why this is safe: a message sent from inside window [W, W+L) carries a
// delay of at least L, so it is stamped at or after W+L — strictly beyond
// the window every shard is executing. No shard can receive an event in
// its past, so no rollback machinery is needed.
//
// Why this is deterministic, at every worker count: shards share no
// mutable state during a window (cross-shard messages are staged in
// per-source outbox rings, invisible to the destination until the
// barrier), each member kernel is itself deterministic, and the barrier
// merge orders messages by (t, source shard, source sequence) into the
// destination kernel's message lane (Kernel.inbox), which the member
// event loop consumes under a fixed rule: at each instant, local events
// first, then lane messages in lane order. Because that rule never refers
// to *when* a message was merged, the run is a pure function of the seed
// and the model — bit-identical at any worker count, any window width,
// and with or without adaptive widening.
//
// Adaptive window widening: the static window end W+L-1 assumes every
// shard might send at W. But each shard's next event time is known at the
// barrier, and nothing reaches shard i except down a chain of sends that
// starts with some shard k executing an event — at or after bound_k — and
// pays a delivery floor per hop. So shard i can safely run to min over
// active shards k of (bound_k + reach(k→i)) - 1, where reach is the
// cheapest such chain; k = i counts too, with the cheapest round trip,
// because i's own sends can wake a peer whose reply comes straight back.
// That is often far past the static end when shards are at different
// virtual times. Fewer barriers, same results.
//
// Execution: each window hands its active shards to RunCells, the worker
// pool the experiment sweeps use, which claims them in shard order and
// returns when every one has reached its window end. With one worker the
// calling goroutine runs them in line, in shard order; that loop is the
// sequential reference the differential tests pin the parallel windows
// against. A megascale rep runs tens of windows, not millions, so a pool
// started per window costs nothing a dedicated barrier would save.
//
// Cross-shard interaction happens only through Shard.Send. The delivery
// closure runs in the destination shard's kernel context and must touch
// only destination-shard state — the shardsafe simlint analyzer enforces
// the capture rules statically.

// maxTime is the largest representable virtual time.
const maxTime = Time(1<<63 - 1)

// xmsg is one staged cross-shard message: at time t on the destination
// shard, run fn. src/seq make the barrier merge order total and
// deterministic.
type xmsg struct {
	t   Time
	src int
	seq uint64
	fn  func(*Shard)
}

// xmsgBefore is the deterministic lane order: (t, source shard, source
// sequence).
func xmsgBefore(a, b *xmsg) bool {
	if a.t != b.t {
		return a.t < b.t
	}
	if a.src != b.src {
		return a.src < b.src
	}
	return a.seq < b.seq
}

// xmsgQueue implements sort.Interface over a staged-message slice with a
// pointer receiver, so the barrier merge sorts without the closure and
// interface-boxing allocations of sort.Slice.
type xmsgQueue []xmsg

func (q *xmsgQueue) Len() int           { return len(*q) }
func (q *xmsgQueue) Less(i, j int) bool { return xmsgBefore(&(*q)[i], &(*q)[j]) }
func (q *xmsgQueue) Swap(i, j int)      { (*q)[i], (*q)[j] = (*q)[j], (*q)[i] }

// ShardGroup coordinates the member kernels of one sharded simulation.
// Build the model across the shards' kernels before calling Run; like
// Kernel, a group must not be touched from other host goroutines while it
// runs.
type ShardGroup struct {
	seed      int64
	lookahead Duration
	floors    [][]Duration // per-(src,dst) delivery floors; the lookahead unless SetPairLookahead refines them
	reach     [][]Duration // cheapest chain of one or more sends src→dst; [i][i] is i's cheapest round trip
	workers   int
	adaptive  bool // per-shard window widening; on, and off only in tests
	shards    []*Shard
	active    []*Shard // scratch: shards with pending work this window
	windows   int64    // multi-shard windows executed (barrier count)

	// solo is true while a solo-mode window runs (see RunUntil): the one
	// running shard's first cross-shard Send must end the window, so Send
	// sets the kernel's windowBreak flag when solo is up.
	solo bool
}

// Shard is one member of a ShardGroup: a kernel plus the staging rings
// for its outbound cross-shard messages and the scratch buffers the
// barrier merge ping-pongs with the kernel's message lane.
type Shard struct {
	g     *ShardGroup
	id    int
	k     *Kernel
	seq   uint64       // send sequence, part of the deterministic merge key
	out   []ring[xmsg] // per-destination outbox, written only while this shard executes
	stage xmsgQueue    // messages drained from peer outboxes this barrier, reused across windows
	merge []xmsg       // merge target, swapped with the kernel's lane each barrier

	// bound and end are this shard's next-event lower bound and window end
	// for the current window. Written single-threaded at the barrier,
	// before the window's workers start, and read by whichever one runs
	// the shard.
	bound Time
	end   Time
}

// NewShardGroup returns a group of n member kernels. Shard 0 is the home
// shard and inherits the group seed unchanged, so a model built entirely
// on shard 0 is byte-identical to the same model on a plain
// NewKernel(seed); the remaining shards get splitmix-derived seeds.
//
// lookahead is the minimum cross-shard delivery latency the model
// guarantees: every Shard.Send to another shard must carry a delay of at
// least lookahead. Zero is legal and falls back to instant-by-instant
// lockstep execution.
func NewShardGroup(seed int64, n int, lookahead Duration) *ShardGroup {
	if n < 1 {
		panic("sim: ShardGroup needs at least one shard")
	}
	if lookahead < 0 {
		panic("sim: negative lookahead")
	}
	g := &ShardGroup{seed: seed, lookahead: lookahead, adaptive: true}
	g.floors = make([][]Duration, n)
	for i := 0; i < n; i++ {
		g.floors[i] = make([]Duration, n)
		for j := range g.floors[i] {
			if j != i {
				g.floors[i][j] = lookahead
			}
		}
		shardSeed := seed
		if i > 0 {
			shardSeed = procSeed(seed, int64(i))
		}
		s := &Shard{
			g:   g,
			id:  i,
			k:   NewKernel(shardSeed),
			out: make([]ring[xmsg], n),
		}
		s.k.extShard = s
		g.shards = append(g.shards, s)
	}
	g.computeReach()
	return g
}

// computeReach rebuilds the reach matrix from the delivery floors: all-pairs
// cheapest paths of at least one hop (Floyd–Warshall with the diagonal left
// open, so [i][i] closes as the cheapest cycle through i). Intermediate
// shards need not be busy — an idle shard relays as soon as a message
// wakes it.
func (g *ShardGroup) computeReach() {
	const unreachable = Duration(maxTime)
	n := len(g.shards)
	g.reach = make([][]Duration, n)
	for i := range g.reach {
		g.reach[i] = make([]Duration, n)
		for j := range g.reach[i] {
			g.reach[i][j] = unreachable
			if i != j {
				g.reach[i][j] = g.floors[i][j]
			}
		}
	}
	for k := 0; k < n; k++ {
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				ik, kj := g.reach[i][k], g.reach[k][j]
				if ik != unreachable && kj != unreachable && ik+kj < g.reach[i][j] {
					g.reach[i][j] = ik + kj
				}
			}
		}
	}
}

// Shard returns the i'th member.
func (g *ShardGroup) Shard(i int) *Shard { return g.shards[i] }

// SetWorkers bounds how many shards execute concurrently per window;
// 0 (the default) means one worker per available CPU. Results are
// bit-identical for every value.
func (g *ShardGroup) SetWorkers(n int) { g.workers = n }

// SetPairLookahead installs per-(source, destination) delivery floors in
// place of the uniform lookahead: megascale's WAN chain floors. Entry
// [i][j] is the minimum delay a Send from shard i to shard j must carry;
// the diagonal is ignored, and every cross-shard entry must be at least
// the group lookahead (the matrix refines the uniform floor, it cannot
// relax it). Adaptive widening uses the per-pair floors to push window
// ends further than the uniform lookahead allows. Results are
// bit-identical with or without widening — it only moves barriers, and
// the message-lane execution rule does not depend on where they fall.
func (g *ShardGroup) SetPairLookahead(la [][]Duration) {
	n := len(g.shards)
	if len(la) != n {
		panic("sim: pair-lookahead matrix must be shards x shards")
	}
	for i, row := range la {
		if len(row) != n {
			panic("sim: pair-lookahead matrix must be shards x shards")
		}
		for j, d := range row {
			if i != j && d < g.lookahead {
				panic("sim: pair lookahead below the group lookahead")
			}
		}
	}
	g.floors = la
	g.computeReach()
}

// Floor returns the delivery floor for the directed shard pair: the
// per-pair lookahead when a matrix is installed, the group lookahead
// otherwise. Cross-shard sends must use at least this delay, so callers
// modeling "the cheapest possible hop" should send with exactly it.
func (g *ShardGroup) Floor(src, dst int) Duration { return g.floors[src][dst] }

// ID returns the shard's index within its group.
func (s *Shard) ID() int { return s.id }

// Kernel returns the shard's member kernel. Use it to build the shard's
// slice of the model before Run; while the group runs, only code executing
// on this shard may touch it.
func (s *Shard) Kernel() *Kernel { return s.k }

// Group returns the group the shard belongs to.
func (s *Shard) Group() *ShardGroup { return s.g }

// Send schedules fn to run on shard dst, delay after the current virtual
// time. fn executes in the destination kernel's event context (like
// Kernel.After: it must not block, but may spawn processes on the
// destination kernel) and receives the destination shard, through which it
// can reach the destination kernel and send replies. It must touch only
// destination-shard state; in particular it must not capture the sending
// shard's *Proc, *Kernel, or *Shard (the shardsafe analyzer flags this).
//
// Sends to another shard must respect the group's delivery floor: delay
// must be at least Lookahead(), or the per-pair floor when
// SetPairLookahead installed one. Sends to the shard itself have no lower
// bound and are scheduled locally.
func (s *Shard) Send(dst int, delay Duration, fn func(*Shard)) {
	if fn == nil {
		panic("sim: Shard.Send with nil fn")
	}
	if delay < 0 {
		delay = 0
	}
	d := s.g.shards[dst] // panics on an out-of-range destination
	t := s.k.now.Add(delay)
	if d == s {
		s.k.schedule(t, func() { fn(s) })
		return
	}
	if min := s.g.floors[s.id][dst]; delay < min {
		s.sendPanic(dst, delay, min)
	}
	s.seq++
	s.out[dst].push(xmsg{t: t, src: s.id, seq: s.seq, fn: fn})
	if s.g.solo {
		s.k.windowBreak = true
	}
}

// sendPanic reports a Send below the delivery floor — a model bug.
//
//simlint:coldpath formatting the violation report; the caller is already off the performance cliff
func (s *Shard) sendPanic(dst int, delay, min Duration) {
	panic(fmt.Sprintf("sim: cross-shard send %d->%d with delay %v below lookahead %v",
		s.id, dst, delay, min))
}

// Run executes the group until every shard drains. It returns a
// *DeadlockError naming the blocked processes of every shard if the whole
// group can make no further progress while processes remain live.
func (g *ShardGroup) Run() error { return g.RunUntil(maxTime) }

// RunUntil executes events with time ≤ limit across all shards. Events
// beyond the limit stay queued, and reaching the limit is not a deadlock.
// The goroutines a parallel window starts are gone when the window ends,
// so no goroutine of the group outlives RunUntil, whether it returns or
// panics.
func (g *ShardGroup) RunUntil(limit Time) error {
	if len(g.shards) == 1 {
		// A single-shard group has no cross-shard traffic at all (Send to
		// self schedules locally), so the member kernel runs unwindowed —
		// the run is the plain sequential kernel, byte for byte.
		return g.shards[0].k.RunUntil(limit)
	}
	for {
		g.deliver()
		// The next window starts at the global minimum next-event time.
		// Per-shard bounds may be coarse-slot lower bounds rather than
		// exact event times; that only costs an empty window, never
		// correctness, and each window strictly advances the bound.
		w := g.computeWindow()
		if len(g.active) == 0 {
			return g.finish()
		}
		if w > limit {
			for _, s := range g.shards {
				if s.k.now < limit {
					s.k.now = limit
				}
			}
			return nil
		}
		if len(g.active) == 1 {
			// Solo fast path: deliver just drained every outbox, so with
			// all other shards idle nothing can reach the solo shard until
			// it sends first. It may therefore run unbounded — no window
			// chopping — until its first cross-shard Send, which sets the
			// kernel's windowBreak flag and ends the window before any
			// further event executes. The staged message is ≥ lookahead
			// ahead of the send, and any reply another ≥ lookahead after
			// that, so nothing lands in the solo shard's past, and a group
			// with one busy shard runs at plain-kernel speed.
			g.solo = true
			g.active[0].k.runWindow(limit)
			g.solo = false
			continue
		}
		g.computeEnds(w, limit)
		g.windows++
		g.runWindow()
	}
}

// Windows returns the number of multi-shard windows (barriers) the group
// has executed — solo-mode and single-shard runs count zero. Adaptive
// widening exists to push this number down; the scaling benchmarks report
// it.
func (g *ShardGroup) Windows() int64 { return g.windows }

// computeWindow fills g.active with the shards that have pending work,
// records each one's next-event lower bound, and returns the global
// minimum — the start of the next window.
//
//simlint:hotpath
func (g *ShardGroup) computeWindow() Time {
	g.active = g.active[:0]
	w := maxTime
	for _, s := range g.shards {
		t, ok := s.k.nextPendingBound()
		if !ok {
			continue
		}
		s.bound = t
		g.active = append(g.active, s)
		if t < w {
			w = t
		}
	}
	return w
}

// computeEnds assigns each active shard its window end. The static end is
// W + lookahead - 1 for every shard. With adaptive widening, shard i can
// additionally run to min over active shards k (itself included) of
// (bound_k + reach(k→i)) - 1: shard k cannot execute — and so cannot
// start a chain of sends — before bound_k, and the cheapest chain from k
// to i, relayed by whichever shards it wakes, takes reach(k→i), so no
// message can reach i at or before that end. Idle shards start nothing;
// they only relay, which reach already prices in. The adaptive end is
// never below the static end (bounds are ≥ W, reach ≥ lookahead), and ends
// are computed single-threaded at the barrier, so they are identical at
// every worker count.
//
//simlint:hotpath
func (g *ShardGroup) computeEnds(w, limit Time) {
	static := w
	if g.lookahead > 0 {
		static = w.Add(g.lookahead) - 1
	}
	if static > limit {
		static = limit
	}
	for _, s := range g.active {
		s.end = static
	}
	if !g.adaptive {
		return
	}
	for _, s := range g.active {
		end := maxTime
		for _, o := range g.active {
			// A negative candidate (virtual-time overflow) sorts below the
			// static end and is ignored — conservative either way.
			if cand := o.bound.Add(g.reach[o.id][s.id]) - 1; cand < end {
				end = cand
			}
		}
		if end > limit {
			end = limit
		}
		if end > s.end {
			s.end = end
		}
	}
}

// finish resolves an all-idle group: a clean drain releases every shard's
// worker pool; live processes with nothing pending anywhere are a
// group-wide deadlock.
func (g *ShardGroup) finish() error {
	live := 0
	var at Time
	var blocked []string
	for _, s := range g.shards {
		live += s.k.live
		if s.k.now > at {
			at = s.k.now
		}
		blocked = append(blocked, s.k.blockedNames()...)
	}
	if live > 0 {
		sort.Strings(blocked)
		return &DeadlockError{Time: at, Blocked: blocked}
	}
	for _, s := range g.shards {
		s.k.drainPools()
	}
	return nil
}

// deliver merges every staged cross-shard message into its destination
// kernel's message lane. Per destination, messages from all sources are
// sorted by (t, source shard, source seq) and merged with the lane's
// undelivered remainder — both already in lane order, so the merge is
// linear. The destination's event sequence is therefore independent of
// how the previous window's shards interleaved on host CPUs and of where
// the barriers fell. The staged batch, the merge target, and the lane
// ping-pong between three reused buffers, so a steady-state barrier
// allocates nothing.
//
//simlint:hotpath
func (g *ShardGroup) deliver() {
	for _, dst := range g.shards {
		batch := dst.stage[:0]
		for _, src := range g.shards {
			if src == dst {
				continue
			}
			r := &src.out[dst.id]
			for r.len() > 0 {
				batch = append(batch, r.pop())
			}
		}
		dst.stage = batch
		if len(batch) == 0 {
			continue
		}
		sort.Sort(&dst.stage)
		k := dst.k
		if batch[0].t < k.now {
			// The window ends exist to make this impossible; executing the
			// message late would silently change the results.
			panic("sim: cross-shard message lands in its destination's past")
		}
		left := k.inbox[k.inboxIdx:]
		merged := dst.merge[:0]
		i, j := 0, 0
		for i < len(left) && j < len(batch) {
			if xmsgBefore(&left[i], &batch[j]) {
				merged = append(merged, left[i])
				i++
			} else {
				merged = append(merged, batch[j])
				j++
			}
		}
		merged = append(merged, left[i:]...)
		merged = append(merged, batch[j:]...)
		old := k.inbox
		k.inbox = merged
		k.inboxIdx = 0
		k.pending += len(batch)
		clear(old) // drop stale fn references so delivered closures can be collected
		dst.merge = old[:0]
		dst.stage = batch[:0]
	}
}

// runWindow executes every active shard up to its window end on the
// worker pool. Shards share no mutable state during a window, so any
// interleaving yields the same result; a panic inside any shard (a model
// bug) is re-raised on the calling goroutine, the lowest shard id's when
// several shards panic at once, so the report is deterministic.
//
//simlint:coldpath one pool call per window, whose closure, goroutines and result slices allocate; a mega_shards2 rep runs 74 windows
func (g *ShardGroup) runWindow() {
	RunCells(g.workers, len(g.active), func(i int) (struct{}, error) {
		s := g.active[i]
		s.k.runWindow(s.end)
		return struct{}{}, nil
	})
}
