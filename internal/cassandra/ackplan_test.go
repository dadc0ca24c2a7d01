package cassandra

import (
	"errors"
	"math/rand"
	"testing"

	"cloudbench/internal/cluster"
	"cloudbench/internal/kv"
	"cloudbench/internal/sim"
)

// TestSingleRackLocalQuorumIsQuorum: one rack is one DC, so LOCAL_QUORUM
// and EACH_QUORUM there are QUORUM — a majority of the replication factor,
// down replicas counted. With two of three replicas down no majority level
// may succeed on the survivor's single ack.
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
			cl := base.WithConsistency(lv, lv)
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
// replicas answer — each exactly once, with an ack or a loss.
type ackCase struct {
	cl     kv.ConsistencyLevel
	zones  int
	cz     int
	zone   []int  // per replica
	down   []bool // per replica
	events []ackEvent
}

type ackEvent struct {
	replica int
	ok      bool
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

// checkAckCase plays c through the real plan and compares, event by event,
// with refAcks — and for the zone-agnostic levels with sim.Quorum.
func checkAckCase(t *testing.T, c ackCase) {
	t.Helper()
	k := sim.NewKernel(1)
	// Each DC block holds its replicas plus one spare node, so a DC with no
	// replica still exists.
	sizes := make([]int, c.zones)
	for z := range sizes {
		sizes[z] = 1
	}
	for _, z := range c.zone {
		sizes[z]++
	}
	ccfg := cluster.DefaultConfig()
	ccfg.Nodes = len(c.zone) + c.zones
	if c.zones > 1 {
		ccfg.Geo = &cluster.GeoTopology{DCSizes: sizes, WANOneWay: cluster.WANChain(c.zones, 0)}
	}
	cl := cluster.New(k, ccfg)
	db := &DB{k: k, cl: cl}
	// Replica i sits on the next free node of its zone's block.
	next := make([]int, c.zones)
	start := make([]int, c.zones)
	for z := 1; z < c.zones; z++ {
		start[z] = start[z-1] + sizes[z-1]
	}
	replicas := make([]*Replica, len(c.zone))
	live := 0
	for i, z := range c.zone {
		n := cl.Nodes[start[z]+next[z]]
		next[z]++
		if c.down[i] {
			n.Fail()
		} else {
			live++
		}
		replicas[i] = &Replica{Node: n}
	}

	wantAt, want := refAcks(c)
	plan := db.planAcks(c.cl, c.cz, replicas)
	if plan == nil {
		if wantAt != -1 || want {
			t.Fatalf("%+v: planned unavailable, reference decides %v at %d", c, want, wantAt)
		}
		return
	}
	var q *sim.Quorum
	if c.cl != kv.LocalQuorum && c.cl != kv.EachQuorum {
		q = sim.NewQuorum(k, c.cl.Required(len(replicas)), live)
	}
	at := len(c.events)
	for i := -1; i < len(c.events); i++ {
		if i >= 0 {
			e := c.events[i]
			if e.ok {
				plan.ack(c.zone[e.replica])
				if q != nil {
					q.Succeed()
				}
			} else {
				plan.fail(c.zone[e.replica])
				if q != nil {
					q.Fail()
				}
			}
		}
		got, done := plan.f.Value()
		if q != nil {
			if qv, qdone := q.Done().Value(); qdone != done || qv != got {
				t.Fatalf("%+v: after event %d plan = %v/%v, sim.Quorum = %v/%v", c, i, got, done, qv, qdone)
			}
		}
		if done && at == len(c.events) {
			at = i
			if got != want {
				t.Fatalf("%+v: plan decides %v at %d, reference %v at %d", c, got, at, want, wantAt)
			}
		}
	}
	if at != wantAt {
		t.Fatalf("%+v: plan decides at %d, reference at %d", c, at, wantAt)
	}
}

// decodeAckCase builds a case from fuzz bytes: level, zone count,
// coordinator zone, then one byte per replica: zone in the low bits, 0x10
// down, 0x20 its write is lost. The live replicas answer in an order
// shuffled from the bytes.
func decodeAckCase(data []byte) (ackCase, bool) {
	if len(data) < 4 {
		return ackCase{}, false
	}
	c := ackCase{
		cl:    everyLevel[int(data[0])%len(everyLevel)],
		zones: int(data[1])%3 + 1,
	}
	c.cz = int(data[2]) % c.zones
	rest := data[3:]
	if len(rest) > 8 {
		rest = rest[:8]
	}
	order := make([]int, 0, len(rest))
	for i, b := range rest {
		c.zone = append(c.zone, int(b&0x03)%c.zones)
		c.down = append(c.down, b&0x10 != 0)
		if !c.down[i] {
			order = append(order, i)
		}
	}
	// Answer order: a permutation of the live replicas seeded by the bytes.
	seed := int64(0)
	for _, b := range data {
		seed = seed*131 + int64(b)
	}
	rand.New(rand.NewSource(seed)).Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
	for _, r := range order {
		c.events = append(c.events, ackEvent{replica: r, ok: rest[r]&0x20 == 0})
	}
	return c, true
}

// ackSeeds are hand-picked layouts: every level on one rack and on two and
// three DCs, healthy, with a down replica, with losses that decide late.
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
}

// TestAckPlanMatchesReference drives the plan over the seed table and a
// few thousand random layouts against refAcks and sim.Quorum.
func TestAckPlanMatchesReference(t *testing.T) {
	for _, s := range ackSeeds {
		c, ok := decodeAckCase(s)
		if !ok {
			t.Fatalf("seed %v does not decode", s)
		}
		checkAckCase(t, c)
	}
	rng := rand.New(rand.NewSource(20))
	for i := 0; i < 5000; i++ {
		data := make([]byte, 3+rng.Intn(9))
		rng.Read(data)
		if c, ok := decodeAckCase(data); ok {
			checkAckCase(t, c)
		}
	}
}

func FuzzAckPlan(f *testing.F) {
	for _, s := range ackSeeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if c, ok := decodeAckCase(data); ok {
			checkAckCase(t, c)
		}
	})
}
