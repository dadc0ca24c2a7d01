package cassandra

import (
	"bytes"
	"errors"
	"math/rand"
	"testing"

	"cloudbench/internal/cluster"
	"cloudbench/internal/kv"
	"cloudbench/internal/replica"
	"cloudbench/internal/sim"
)

// TestSingleRackLocalQuorumIsQuorum: one rack is one DC, so LOCAL_QUORUM
// and EACH_QUORUM there are QUORUM — a majority of the replication factor,
// down replicas counted. With two of three replicas down no majority level
// may succeed on the survivor's single ack (each write level read back at
// its readLevel).
func TestSingleRackLocalQuorumIsQuorum(t *testing.T) {
	k := sim.NewKernel(3)
	db, base := testDB(k, 5, 3, nil)
	k.Spawn("client", func(p *sim.Proc) {
		target := key(1)
		if err := base.Insert(p, target, kv.Record{"v": kv.SizedValue(8)}); err != nil {
			t.Error(err)
			return
		}
		replicas := db.ReplicasFor(target)
		replicas[1].Node.Fail()
		replicas[2].Node.Fail()
		for _, lv := range []kv.ConsistencyLevel{kv.Quorum, kv.LocalQuorum, kv.EachQuorum} {
			cl := base.WithConsistency(readLevel(lv), lv)
			if err := cl.Update(p, target, kv.Record{"v": kv.SizedValue(9)}); !errors.Is(err, kv.ErrUnavailable) {
				t.Errorf("%v update with 1 of 3 replicas up: err = %v, want unavailable", lv, err)
			}
			if _, err := cl.Read(p, target, nil); !errors.Is(err, kv.ErrUnavailable) {
				t.Errorf("%v read with 1 of 3 replicas up: err = %v, want unavailable", lv, err)
			}
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
}

// ackCase is one write as the ack plan sees it: a level, the coordinator's
// zone, the replicas' zones and liveness, and the order in which the live
// replicas answer — each exactly once, with an ack or a loss. An event
// marked joined shares its leg with the next one: a forward into a remote
// DC that is lost fails every live replica there from one process. With
// giveUp the coordinator times out after the first event instead of
// waiting for the decision.
type ackCase struct {
	cl     kv.ConsistencyLevel
	zones  int
	cz     int
	zone   []int  // per replica
	down   []bool // per replica
	events []ackEvent
	giveUp bool
}

type ackEvent struct {
	replica int
	ok      bool
	joined  bool
}

// refAcks is the brute-force reference for ackPlan: after every event it
// recounts each scope's acks and losses from scratch and re-derives the
// outcome. It returns the index of the deciding event (-1: at plan time,
// len(events): never) and the decision.
func refAcks(c ackCase) (at int, outcome bool) {
	type scope struct{ zone, need, live int }
	count := func(zone int) scope {
		s, rf := scope{zone: zone}, 0
		for i, z := range c.zone {
			if zone == anyZone || z == zone {
				rf++
				if !c.down[i] {
					s.live++
				}
			}
		}
		s.need = c.cl.Required(rf)
		return s
	}
	var scopes []scope
	switch c.cl {
	case kv.EachQuorum:
		for z := 0; z < c.zones; z++ {
			scopes = append(scopes, count(z))
		}
	case kv.LocalQuorum:
		scopes = append(scopes, count(c.cz))
	}
	holds := 0
	for _, s := range scopes {
		holds += s.need
	}
	if holds == 0 {
		scopes = []scope{count(anyZone)}
	}
	for n := 0; n <= len(c.events); n++ {
		met := true
		for _, s := range scopes {
			acks, lost := 0, 0
			for _, e := range c.events[:n] {
				if s.zone == anyZone || c.zone[e.replica] == s.zone {
					if e.ok {
						acks++
					} else {
						lost++
					}
				}
			}
			if s.live-lost < s.need {
				return n - 1, false
			}
			met = met && acks >= s.need
		}
		if met {
			return n - 1, true
		}
	}
	return len(c.events), false
}

// ackRun is one write of a sequence in flight: its case and reference
// verdict, the pooled op it runs on, how many legs are still out, and how
// far its events have been played.
type ackRun struct {
	c      ackCase
	wantAt int
	want   bool
	op     *writeOp
	legs   int  // legs still out: one per event that ends a leg
	next   int  // next event to play
	at     int  // event the plan decided at; len(events) while undecided
	coord  bool // the coordinator still holds the op
}

// planState is everything of a plan a stray ack or loss could disturb.
type planState struct {
	targets   [8]ackTarget
	n         int
	val, done bool
}

func (r *ackRun) state() planState {
	var s planState
	s.n = copy(s.targets[:], r.op.acks.targets)
	s.val, s.done = r.op.acks.f.Value()
	return s
}

// step plays r's next event: the ack or loss, then the end of its leg.
func (r *ackRun) step(t *testing.T) {
	t.Helper()
	c, i := r.c, r.next
	e := c.events[i]
	r.next++
	if e.ok {
		r.op.acks.ack(c.zone[e.replica])
	} else {
		r.op.acks.fail(c.zone[e.replica])
	}
	r.verify(t, i)
	if !e.joined { // the leg's process ends: see deliver
		r.legs--
		r.op.release()
	}
}

// verify compares the plan with the reference after event i (-1: as
// planned).
func (r *ackRun) verify(t *testing.T, i int) {
	t.Helper()
	c := r.c
	got, done := r.op.acks.f.Value()
	if done && r.at == len(c.events) {
		r.at = i
		if got != r.want {
			t.Fatalf("%+v: plan decides %v at %d, reference %v at %d", c, got, i, r.want, r.wantAt)
		}
	}
	if i == len(c.events)-1 && r.at != r.wantAt {
		t.Fatalf("%+v: plan decides at %d, reference at %d", c, r.at, r.wantAt)
	}
}

// checkAckSequence plays cases, which share a zone count, one after another
// through one DB's pooled writeOps the way overlapping writes use them: a
// write's coordinator lets go of its op once the plan has decided (or, with
// giveUp, after one event), the next write starts, and the earlier writes'
// remaining events — late acks and losses — arrive interleaved with it.
// Every event is checked against refAcks for its own
// write; no event may change another write's plan; and an op or leg struct
// is reused only after everyone holding it has let go.
func checkAckSequence(t *testing.T, cases []ackCase) {
	t.Helper()
	zones := cases[0].zones
	k := sim.NewKernel(1)
	// Each DC block holds one node per replica a case may place there plus a
	// spare, so a DC with no replica still exists.
	const perZone = 9
	sizes := make([]int, zones)
	for z := range sizes {
		sizes[z] = perZone
	}
	ccfg := cluster.DefaultConfig()
	ccfg.Nodes = perZone * zones
	if zones > 1 {
		ccfg.Geo = &cluster.GeoTopology{DCSizes: sizes, WANOneWay: cluster.WANChain(zones, 0)}
	}
	cl := cluster.New(k, ccfg)
	db := &DB{Env: replica.Env{K: k, Cluster: cl}}

	var runs []*ackRun
	others := func(r *ackRun) map[*ackRun]planState {
		m := map[*ackRun]planState{}
		for _, o := range runs {
			if o != r && (o.coord || o.legs > 0) {
				m[o] = o.state()
			}
		}
		return m
	}
	// play steps r once and requires every other write in flight untouched.
	play := func(r *ackRun) {
		before := others(r)
		r.step(t)
		for o, was := range before {
			if now := o.state(); now != was {
				t.Fatalf("an event of %+v changed the plan of %+v: %+v -> %+v", r.c, o.c, was, now)
			}
		}
	}
	// late plays one overdue event of the oldest write that has any.
	late := func() {
		for _, r := range runs {
			if !r.coord && r.next < len(r.c.events) {
				play(r)
				return
			}
		}
	}
	structs := map[*writeOp]bool{}
	for _, c := range cases {
		// Replica i sits on the next free node of its zone's block.
		next := make([]int, zones)
		replicas := make([]*Replica, len(c.zone))
		for i, z := range c.zone {
			n := cl.Nodes[z*perZone+next[z]]
			next[z]++
			if n.Recover(); c.down[i] {
				n.Fail()
			}
			replicas[i] = &Replica{Host: replica.Host{Node: n}}
		}
		r := &ackRun{c: c, coord: true, at: len(c.events)}
		r.wantAt, r.want = refAcks(c)
		if r.op = sim.Take(&db.writeOps); r.op == nil {
			r.op = &writeOp{db: db}
		}
		for _, o := range runs {
			if o.op == r.op && (o.coord || o.legs > 0) {
				t.Fatalf("%+v took the op %+v still holds (%d legs out)", c, o.c, o.legs)
			}
		}
		structs[r.op] = true
		r.op.Begin()
		if !r.op.acks.plan(db, c.cl, c.cz, replicas) {
			if r.wantAt != -1 || r.want {
				t.Fatalf("%+v: planned unavailable, reference decides %v at %d", c, r.want, r.wantAt)
			}
			r.op.release()
			continue
		}
		runs = append(runs, r)
		for _, e := range c.events {
			if !e.joined {
				r.op.leg(nil, replicas[e.replica])
				r.legs++
			}
		}
		r.verify(t, -1)
		// The coordinator waits for the decision, earlier writes' late
		// events arriving in between, then returns.
		for n := 0; r.next < len(c.events) && r.at == len(c.events) && !(c.giveUp && n > 0); n++ {
			late()
			play(r)
		}
		r.coord = false
		r.op.release()
	}
	for _, r := range runs {
		for r.next < len(r.c.events) {
			play(r)
		}
	}
	if len(db.writeOps) != len(structs) {
		t.Fatalf("%d op structs were made, %d are back on the free list", len(structs), len(db.writeOps))
	}
	for _, op := range db.writeOps {
		if op.Held() {
			t.Fatal("op on the free list still held")
		}
	}
}

// decodeAckCase builds a case from fuzz bytes: level (0x80: the coordinator
// gives up early), zone count, coordinator zone, then one byte per replica:
// zone in the low bits, 0x10 down, 0x20 its write is lost, 0x40 — on a
// replica outside the coordinator's DC — the forward into its DC is lost.
// The live replicas answer in an order shuffled from the bytes, a lost
// forward's replicas back to back.
func decodeAckCase(data []byte) (ackCase, bool) {
	if len(data) < 4 {
		return ackCase{}, false
	}
	c := ackCase{
		cl:     everyLevel[int(data[0]&0x7f)%len(everyLevel)],
		zones:  int(data[1])%3 + 1,
		giveUp: data[0]&0x80 != 0,
	}
	c.cz = int(data[2]) % c.zones
	rest := data[3:]
	if len(rest) > 8 {
		rest = rest[:8]
	}
	order := make([]int, 0, len(rest))
	lostDC := make([]bool, c.zones)
	for i, b := range rest {
		c.zone = append(c.zone, int(b&0x03)%c.zones)
		c.down = append(c.down, b&0x10 != 0)
		if !c.down[i] {
			order = append(order, i)
			if b&0x40 != 0 && c.zone[i] != c.cz {
				lostDC[c.zone[i]] = true
			}
		}
	}
	// Answer order: a permutation of the live replicas seeded by the bytes.
	seed := int64(0)
	for _, b := range data {
		seed = seed*131 + int64(b)
	}
	rand.New(rand.NewSource(seed)).Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
	emitted := make([]bool, len(rest))
	for _, r := range order {
		if emitted[r] {
			continue
		}
		if z := c.zone[r]; lostDC[z] {
			for _, o := range order {
				if c.zone[o] == z {
					emitted[o] = true
					c.events = append(c.events, ackEvent{replica: o, joined: true})
				}
			}
			c.events[len(c.events)-1].joined = false
			continue
		}
		c.events = append(c.events, ackEvent{replica: r, ok: rest[r]&0x20 == 0})
	}
	return c, true
}

// decodeAckSequence splits fuzz bytes at 0xff into the writes of one
// sequence; they share the first one's zone count.
func decodeAckSequence(data []byte) []ackCase {
	var cases []ackCase
	for _, chunk := range bytes.Split(data, []byte{0xff}) {
		if len(cases) > 0 && len(chunk) > 1 {
			chunk = append([]byte(nil), chunk...)
			chunk[1] = byte(cases[0].zones - 1)
		}
		if c, ok := decodeAckCase(chunk); ok {
			cases = append(cases, c)
		}
	}
	return cases
}

// ackSeeds are hand-picked layouts: every level on one rack and on two and
// three DCs, healthy, with a down replica, with losses that decide late;
// then sequences whose late acks and losses outlive their coordinator.
var ackSeeds = [][]byte{
	{0, 0, 0, 0, 0, 0},                      // ONE, one rack, all ack
	{3, 0, 0, 0x20, 0, 0x20},                // QUORUM, one rack, two losses
	{4, 0, 0, 0, 0, 0x20},                   // ALL, one loss
	{5, 0, 0, 0x10, 0x10, 0},                // LOCAL_QUORUM, one rack, two down: unavailable
	{6, 0, 0, 0x10, 0, 0},                   // EACH_QUORUM, one rack, one down
	{5, 1, 0, 0, 0, 1, 1},                   // LOCAL_QUORUM, 2 DCs × 2
	{5, 1, 1, 0, 0x20, 1, 1},                // LOCAL_QUORUM from DC 1, a DC-0 loss is ignored
	{6, 1, 0, 0, 0, 1, 0x21},                // EACH_QUORUM, remote loss decides
	{6, 2, 0, 0, 0, 1, 1, 2, 2},             // EACH_QUORUM, 3 DCs × 2
	{6, 2, 1, 0, 0x10, 1, 1, 2, 2},          // EACH_QUORUM, DC 0 cannot seat its majority
	{5, 2, 0, 1, 1, 2, 2},                   // LOCAL_QUORUM, coordinator's DC holds no replicas
	{3, 2, 2, 0, 0x20, 1, 0x21, 2, 0x22},    // QUORUM over 3 DCs, half lost
	{1, 1, 0, 0x20, 0x21, 1},                // TWO, two losses of three
	{2, 2, 0, 0, 1, 2, 0x10, 0x11, 0x12, 7}, // THREE, three down of seven
	// ONE ×3 on one rack: each returns on its first ack, two late acks each.
	{0, 0, 0, 0, 0, 0, 0xff, 0, 0, 0, 0, 0x20, 0, 0xff, 0, 0, 0, 0x20, 0x20, 0},
	// QUORUM, then ALL with a late loss, then QUORUM again, 2 DCs.
	{3, 1, 0, 0, 0, 1, 0xff, 4, 1, 0, 0, 0x20, 1, 0xff, 3, 1, 1, 0, 1, 0x21},
	// EACH_QUORUM whose forward into DC 1 is lost, overlapped by ONE and EACH_QUORUM.
	{6, 1, 0, 0, 0, 0x41, 1, 0xff, 0, 1, 0, 0, 0, 1, 1, 0xff, 6, 1, 0, 0, 0, 1, 1},
	// A coordinator that times out after one event, its op reused only after the stragglers.
	{0x84, 0, 0, 0, 0, 0, 0xff, 0, 0, 0, 0, 0, 0, 0xff, 0x83, 0, 0, 0, 0x20, 0},
}

// TestAckPlanMatchesReference drives the plan over the seed table and a
// few thousand random layouts and sequences against refAcks.
func TestAckPlanMatchesReference(t *testing.T) {
	for _, s := range ackSeeds {
		cases := decodeAckSequence(s)
		if len(cases) == 0 {
			t.Fatalf("seed %v does not decode", s)
		}
		checkAckSequence(t, cases)
	}
	rng := rand.New(rand.NewSource(20))
	for i := 0; i < 5000; i++ {
		data := make([]byte, 3+rng.Intn(9))
		rng.Read(data)
		for n := rng.Intn(4); n > 0; n-- {
			more := make([]byte, 3+rng.Intn(9))
			rng.Read(more)
			data = append(append(data, 0xff), more...)
		}
		if cases := decodeAckSequence(data); len(cases) > 0 {
			checkAckSequence(t, cases)
		}
	}
}

func FuzzAckPlan(f *testing.F) {
	for _, s := range ackSeeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if cases := decodeAckSequence(data); len(cases) > 0 {
			checkAckSequence(t, cases)
		}
	})
}
