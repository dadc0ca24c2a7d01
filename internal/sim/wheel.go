package sim

import "math/bits"

// The scheduler is a hierarchical timing wheel with a same-instant fast
// lane:
//
//	fast lane  — FIFO ring for events at exactly k.now (process wakes,
//	             Sleep(0), After(0)). The dominant wakeAt(k.now, p)
//	             pattern never touches the wheel at all.
//	wheel      — wheelLevels levels of wheelSlots slots. Level l covers
//	             deltas in [2^(6l), 2^(6(l+1))) at a granularity of 2^(6l)
//	             ns, so any delta lands in O(1). Eleven levels of 6 bits
//	             are 66 bits, more than any delta a Time can hold, so the
//	             wheel spans all of virtual time. A uint64 occupancy bitmap
//	             per level turns "next occupied slot" into a rotate +
//	             trailing-zero count.
//
// Determinism argument (why (t, seq) order is preserved exactly):
//
//  1. Events at the current instant only ever enter the fast lane
//     (newEvent routes t ≤ now there), so a level-0 slot never receives an
//     event at the instant it is being drained. Wheel events at time t
//     therefore always carry a smaller seq than fast-lane events at t, and
//     draining "due slot, then fast lane" is (t, seq) order.
//  2. All events in a level-0 slot share one exact time (slots span 1 ns
//     and placements never reach a full cycle ahead), so sorting a drained
//     slot by seq — cascades interleave seqs — restores the total order.
//  3. A coarse slot is cascaded exactly when virtual time reaches its
//     lower bound, before any level-0 slot at the same bound is drained,
//     so events redistribute downward before anything at their time fires.
//
// The top level is never full: a Time below 2^63 puts an event only in
// level-10 slots 0–7, and the slot now is inside never holds one there (a
// level-10 delta is at least 2^60, which reaches the next slot), so next()'s
// candidate bound (base+tz)<<60 stays inside Time.
//
// Cancellation is eager inside the wheel: a resident event records its
// level and index, so Kernel.cancel swap-removes it in O(1) and recycles it,
// and count is exactly the live events resident. The swap reorders a slot,
// which is invisible: a cascade re-places events one by one and drainDue
// sorts by seq (point 2), so the (t, seq) order of the events that fire is
// unchanged. Only the fast lane and the due batch hold a canceled event
// until they reach it; k.pending counts live events only.
const (
	wheelBits   = 6
	wheelSlots  = 1 << wheelBits // 64 slots per level
	wheelMask   = wheelSlots - 1
	wheelLevels = 11 // 66 bits ≥ the 63 of a Time delta
)

type timerWheel struct {
	slots [wheelLevels][wheelSlots][]*event
	occ   [wheelLevels]uint64 // per-level slot-occupancy bitmaps
	count int                 // events resident in the wheel
}

// place files e into the level whose granularity matches its delta from
// now. Events at or before now must go to the fast lane instead; place is
// also used by cascade, where e.t == now is legal and lands in the due
// level-0 slot.
//
//simlint:hotpath
func (w *timerWheel) place(e *event, now Time) {
	d := uint64(e.t - now)
	level := 0
	if d > 0 {
		level = (bits.Len64(d) - 1) / wheelBits
	}
	slot := (uint64(e.t) >> (uint(level) * wheelBits)) & wheelMask
	e.level, e.idx = int8(level), int32(len(w.slots[level][slot]))
	w.slots[level][slot] = append(w.slots[level][slot], e)
	w.occ[level] |= 1 << slot
	w.count++
}

// unlink removes the resident event e; its slot's last event takes its place.
//
//simlint:hotpath
func (w *timerWheel) unlink(e *event) {
	slot := (uint64(e.t) >> (uint(e.level) * wheelBits)) & wheelMask
	buf := w.slots[e.level][slot]
	n := len(buf) - 1
	buf[e.idx] = buf[n]
	buf[e.idx].idx = e.idx
	buf[n] = nil
	w.slots[e.level][slot] = buf[:n]
	if n == 0 {
		w.occ[e.level] &^= 1 << slot
	}
	w.count--
	e.level = -1
}

// next returns the level and lower-bound time of the earliest occupied
// slot at or after now. Ties between levels resolve to the coarsest level:
// its slot must cascade downward before a level-0 slot at the same bound
// is drained, so that same-time events join the slot first. Must only be
// called when count > 0.
//
//simlint:hotpath
func (w *timerWheel) next(now Time) (level int, lb Time) {
	lb = Time(1<<63 - 1)
	for l := wheelLevels - 1; l >= 0; l-- {
		occ := w.occ[l]
		if occ == 0 {
			continue
		}
		shift := uint(l) * wheelBits
		base := uint64(now) >> shift
		cur := base & wheelMask
		rot := bits.RotateLeft64(occ, -int(cur))
		tz := uint(bits.TrailingZeros64(rot))
		if l > 0 && tz == 0 {
			// The slot now is inside at a coarse level holds only
			// next-cycle events: current-cycle ones were cascaded out when
			// time entered the slot, and any new placement inside the slot
			// has a delta below this level's granularity.
			rot &^= 1
			if rot == 0 {
				tz = wheelSlots
			} else {
				tz = uint(bits.TrailingZeros64(rot))
			}
		}
		cand := Time((base + uint64(tz)) << shift)
		if cand < lb {
			level, lb = l, cand
		}
	}
	return level, lb
}

// cascadeDown cascades the occupied current slot at every level from l
// down to 1. now must be the lower bound of the level-l candidate slot, so
// it is aligned to every finer level's granularity as well: a bound like
// 4096 starts a slot at level 2 AND level 1 simultaneously, and both must
// redistribute before the invariant behind next()'s current-slot handling
// ("only next-cycle events remain") holds again. Re-placed events never
// land back in an aligned current slot (their delta always reaches past
// it), so a single downward sweep suffices.
//
//simlint:hotpath
func (w *timerWheel) cascadeDown(l int, now Time) {
	for ; l >= 1; l-- {
		slot := (uint64(now) >> (uint(l) * wheelBits)) & wheelMask
		if w.occ[l]&(1<<slot) != 0 {
			w.cascade(l, now)
		}
	}
}

// cascade empties the level-`level` slot whose lower bound is now,
// re-placing current-cycle events into finer levels (an event at exactly
// now lands in the due level-0 slot). Next-cycle events sharing the slot
// stay put.
//
//simlint:hotpath
func (w *timerWheel) cascade(level int, now Time) {
	shift := uint(level) * wheelBits
	slot := (uint64(now) >> shift) & wheelMask
	buf := w.slots[level][slot]
	cyc := uint64(now) >> shift
	w.count -= len(buf)
	keep := 0
	for _, e := range buf {
		if uint64(e.t)>>shift == cyc {
			w.place(e, now)
		} else {
			buf[keep] = e
			e.idx = int32(keep)
			keep++
			w.count++
		}
	}
	for i := keep; i < len(buf); i++ {
		buf[i] = nil
	}
	w.slots[level][slot] = buf[:keep]
	if keep == 0 {
		w.occ[level] &^= 1 << slot
	}
}

// drainDue empties the level-0 slot at time t (== k.now) into k.due,
// insertion-sorted by seq. Direct placements arrive in seq order already;
// cascaded events interleave and unlink swaps, so the sort is near-linear
// in practice. The slot is occupied, so the batch is never empty.
//
//simlint:hotpath
func (k *Kernel) drainDue(t Time) {
	slot := uint64(t) & wheelMask
	buf := k.wheel.slots[0][slot]
	k.wheel.occ[0] &^= 1 << slot
	k.wheel.count -= len(buf)
	k.due = k.due[:0]
	k.dueIdx = 0
	for _, e := range buf {
		e.level = -1
		j := len(k.due)
		k.due = append(k.due, e)
		for j > 0 && k.due[j-1].seq > e.seq {
			k.due[j] = k.due[j-1]
			j--
		}
		k.due[j] = e
	}
	for i := range buf {
		buf[i] = nil
	}
	k.wheel.slots[0][slot] = buf[:0]
}

// advance moves virtual time forward to the next instant with due events,
// filling k.due, without exceeding limit. It returns false when there is
// nothing left to fire at or before limit (k.now is then clamped to
// limit if events remain beyond it).
//
//simlint:hotpath
func (k *Kernel) advance(limit Time) bool {
	for {
		if k.wheel.count == 0 {
			return false
		}
		level, lb := k.wheel.next(k.now)
		if lb > limit {
			k.now = limit
			return false
		}
		k.now = lb
		if level == 0 {
			k.drainDue(lb)
			return true
		}
		k.wheel.cascadeDown(level, lb)
	}
}

// pop returns the next live event in (t, seq) order at or before limit,
// or nil when the limit cuts the run short. Order: the sorted due batch
// for the current instant, then the same-instant fast lane, then advance
// time.
//
//simlint:hotpath
func (k *Kernel) pop(limit Time) *event {
	for {
		for k.dueIdx < len(k.due) {
			e := k.due[k.dueIdx]
			k.due[k.dueIdx] = nil
			k.dueIdx++
			if !e.canceled {
				return e
			}
			k.recycle(e)
		}
		for k.fast.len() > 0 {
			e := k.fast.pop()
			if !e.canceled {
				return e
			}
			k.recycle(e)
		}
		if !k.advance(limit) {
			return nil
		}
	}
}
