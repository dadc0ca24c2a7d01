package objstore

import (
	"cloudbench/internal/kv"
	"cloudbench/internal/ring"
)

// partPower sets the partition count to 2^partPower (Swift's part_power).
const partPower = 6

// partTable is the Swift-style partition table over the shared
// consistent-hash ring: keys map to one of 2^partPower partitions by the
// top bits of their token, and each partition maps to a fixed replica set
// plus a handoff order. Both tables are precomputed at build time from the
// vnode layout alone, so placement is a pure function of (topology, seed):
// node failures never rebuild the ring — a down primary's writes go to the
// first live handoff, exactly like Swift's get_more_nodes.
type partTable struct {
	parts    [][]*Server // placement per partition, ring order, primary first
	handoffs [][]*Server // remaining servers per partition, ring order
}

// buildPartTable draws the vnode ring from the deterministic rng stream
// and precomputes, per partition, the full server order clockwise from the
// partition's base token, split into the rf-wide placement set and the
// handoff tail.
func buildPartTable(servers []*Server, rf int, randToken func() uint64) partTable {
	r := ring.New(servers, func(s *Server) int { return s.Node.Zone }, ring.VNodes, randToken)
	if rf > len(servers) {
		rf = len(servers)
	}
	const nparts = 1 << partPower
	t := partTable{
		parts:    make([][]*Server, nparts),
		handoffs: make([][]*Server, nparts),
	}
	for part := range t.parts {
		order := r.Simple(ring.Token(uint64(part)<<(64-partPower)), len(servers))
		t.parts[part], t.handoffs[part] = order[:rf], order[rf:]
	}
	return t
}

// partition maps a key to its partition: the top partPower bits of its
// token.
func (t *partTable) partition(key kv.Key) int {
	return int(uint64(ring.Hash(key)) >> (64 - partPower))
}

// placement returns the partition's replica set, primary first.
func (t *partTable) placement(part int) []*Server { return t.parts[part] }

// handoff returns the partition's handoff order: the servers that stand in,
// in ring order, when placement members are down.
func (t *partTable) handoff(part int) []*Server { return t.handoffs[part] }
