package cassandra

// The DC-aware half of the coordinator: the acknowledgement plan every
// write waits on (one target for the zone-agnostic levels and
// LOCAL_QUORUM, one per DC for EACH_QUORUM), the DC-local contact set of
// LOCAL_QUORUM reads; the write path itself (cassandra.go)
// sends ONE mutation per remote DC across the WAN — to a forwarder replica
// that relays it over local links — instead of one per remote replica,
// exactly as Cassandra's coordinator does. The paper's single rack is one DC
// holding every node: it runs this same code with one zone, so its
// per-DC majorities are plain majorities and it has no DC to forward to.

import (
	"cloudbench/internal/kv"
	"cloudbench/internal/sim"
)

// zones returns the cluster's zone (data center) count; 1 without a
// cluster.
func (db *DB) zones() int {
	if db.Cluster == nil {
		return 1
	}
	return db.Cluster.Zones()
}

// dcLocalPlan restricts replicas to one DC with the real
// NetworkTopologyStrategy majority: the DC's live replicas in ring order,
// appended to dst, and a majority of its replication factor, counting down
// replicas — a DC that has lost half its replicas cannot seat a quorum even
// though the survivors could form a majority among themselves. need is 0
// when the DC holds no replicas.
func dcLocalPlan(dst, replicas []*Replica, zone int) (local []*Replica, need int) {
	rf := 0
	for _, r := range replicas {
		if r.Node.Zone != zone {
			continue
		}
		rf++
		if !r.Node.Down() {
			dst = append(dst, r)
		}
	}
	return dst, kv.Quorum.Required(rf)
}

// anyZone scopes an ackTarget to every replica, whatever its DC.
const anyZone = -1

// ackTarget is one requirement of a write's consistency level: need more
// acknowledgements from the live replicas in zone (anyZone: anywhere),
// which can lose spare more of them before need is out of reach.
type ackTarget struct {
	zone, need, spare int
}

// ackPlan tracks a write's acknowledgements against the level's targets
// and settles f as soon as the outcome is decided either way: true when
// every target is met, false when one no longer can be. The first decision
// stands (Future.Set is first-wins). It lives inside its writeOp; the three
// inline targets cover EACH_QUORUM over three DCs without allocating.
type ackPlan struct {
	f       sim.Future[bool]
	targets []ackTarget
	buf     [3]ackTarget
}

// targetFor is cl's requirement over the replicas in zone: the level's
// count at the replication factor of that scope — down replicas included,
// so a DC that has lost half its replicas cannot seat a majority even
// though the survivors could form one among themselves — with the live
// ones to draw it from. need is 0 when the scope holds no replicas.
func targetFor(cl kv.ConsistencyLevel, replicas []*Replica, zone int) ackTarget {
	rf, live := 0, 0
	for _, r := range replicas {
		if zone != anyZone && r.Node.Zone != zone {
			continue
		}
		rf++
		if !r.Node.Down() {
			live++
		}
	}
	need := cl.Required(rf)
	return ackTarget{zone: zone, need: need, spare: live - need}
}

// plan turns cl into the targets a write coordinated from zone cz must
// meet: EACH_QUORUM a majority in every DC holding replicas, LOCAL_QUORUM a
// majority in the coordinator's DC, every other level — and LOCAL_QUORUM
// from a DC holding no replicas — its count over all replicas. It reports
// false, leaving f as it was, when the live replicas cannot meet a target:
// the write is unavailable.
func (a *ackPlan) plan(db *DB, cl kv.ConsistencyLevel, cz int, replicas []*Replica) bool {
	a.targets = a.buf[:0]
	switch cl {
	case kv.EachQuorum:
		for z, zones := 0, db.zones(); z < zones; z++ {
			if t := targetFor(cl, replicas, z); t.need > 0 {
				a.targets = append(a.targets, t)
			}
		}
	case kv.LocalQuorum:
		if t := targetFor(cl, replicas, cz); t.need > 0 {
			a.targets = append(a.targets, t)
		}
	}
	if len(a.targets) == 0 {
		a.targets = append(a.targets, targetFor(cl, replicas, anyZone))
	}
	for _, t := range a.targets {
		if t.spare < 0 {
			return false
		}
	}
	a.f.Init(db.K)
	a.settleIfMet()
	return true
}

// ack records a successful replica write in zone z.
//
//simlint:hotpath
func (a *ackPlan) ack(z int) {
	for i := range a.targets {
		if t := &a.targets[i]; t.zone == anyZone || t.zone == z {
			t.need--
		}
	}
	a.settleIfMet()
}

// fail records a lost replica write in zone z. Every live replica answers
// at most once, so a target that has been met cannot run out of spare.
//
//simlint:hotpath
func (a *ackPlan) fail(z int) {
	for i := range a.targets {
		if t := &a.targets[i]; t.zone == anyZone || t.zone == z {
			if t.spare--; t.spare < 0 {
				a.f.Set(false)
			}
		}
	}
}

//simlint:hotpath
func (a *ackPlan) settleIfMet() {
	for _, t := range a.targets {
		if t.need > 0 {
			return
		}
	}
	a.f.Set(true)
}
