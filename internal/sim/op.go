package sim

// Take pops a pooled struct — an operation with embedded futures, its legs,
// its scratch — off its owner's free list; nil means build one. Everything on
// one kernel runs one process at a time, so the lists need no lock.
func Take[T any](free *[]*T) *T {
	n := len(*free)
	if n == 0 {
		return nil
	}
	x := (*free)[n-1]
	*free = (*free)[:n-1]
	return x
}

// Op is what a pooled fan-out operation embeds: the count of its holders
// and its legs of type L, kept across uses, each run on a process of its own.
// Who holds an op, and why no late leg lands on its next use, is DESIGN.md's
// "Pooled operations".
type Op[L any] struct {
	holders int
	legs    []*L
	used    int              // legs handed out since Begin
	idle    Future[struct{}] // set when one holder is left
}

// Begin starts a use of o, held by the caller until it calls Release.
func (o *Op[L]) Begin() {
	if o.holders != 0 {
		panic("sim: Begin of an op that is still held")
	}
	o.holders, o.used = 1, 0
}

// Hold adds a holder that is not a leg; it lets go with Release.
func (o *Op[L]) Hold() { o.holders++ }

// Leg hands out o's next leg, built by build the first time a use reaches
// its slot, and holds o until the leg calls Release.
//
//simlint:hotpath
func (o *Op[L]) Leg(build func() *L) *L {
	if o.used == len(o.legs) {
		o.legs = append(o.legs, build())
	}
	o.used++
	o.holders++
	return o.legs[o.used-1]
}

// Legs returns the legs handed out since Begin, in order.
func (o *Op[L]) Legs() []*L { return o.legs[:o.used] }

// Built returns every leg o has built, in slot order, handed out or not.
func (o *Op[L]) Built() []*L { return o.legs }

// Release drops one hold on o and reports whether it was the last; the owner
// then resets o and puts it back on its free list.
//
//simlint:hotpath
func (o *Op[L]) Release() (last bool) {
	if o.holders--; o.holders == 1 {
		o.idle.Set(struct{}{})
	}
	return o.holders == 0
}

// AwaitLegs blocks p, a holder of o, until every other holder has released
// it.
//
//simlint:hotpath
func (o *Op[L]) AwaitLegs(p *Proc) {
	if o.holders > 1 {
		o.idle.Init(p.k)
		o.idle.Await(p)
	}
}

// Held reports whether anybody holds o; an op on a free list never is.
func (o *Op[L]) Held() bool { return o.holders > 0 }
