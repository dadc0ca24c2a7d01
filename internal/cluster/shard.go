package cluster

import "time"

// ShardPlan maps a cluster topology onto kernel execution shards (see
// sim.ShardGroup). These are host-side execution partitions — which member
// kernel simulates which nodes — and are unrelated to the key-range splits
// ycsb.SplitPoints produces for pre-splitting HBase regions.
type ShardPlan struct {
	Shards    int
	Lookahead time.Duration // min one-way cross-shard network latency
	NodeShard []int         // NodeShard[i] is the execution shard of node i

	// PairLookahead[a][b] is the minimum one-way latency from any node on
	// shard a to any node on shard b — the delivery floor for that directed
	// pair, and the matrix sim.ShardGroup.SetPairLookahead consumes for
	// adaptive window widening. Diagonal entries are zero. On a geo
	// topology where shard boundaries align with DC boundaries the
	// off-diagonal entries are the per-DC-pair WAN floors, so far-apart
	// shards get windows far wider than the global minimum. Nil when
	// Shards == 1.
	PairLookahead [][]time.Duration
}

// PlanShards partitions a cfg.Nodes-node topology into the given number of
// contiguous execution shards and computes the conservative lookahead: the
// minimum one-way network latency between any two nodes that land on
// different shards. Any message between nodes on different shards takes at
// least that long, so it is the largest window width the conservative
// scheme can safely use.
//
// Node i goes to shard i*shards/nodes. On a single rack every cross-shard
// edge is a rack edge and the lookahead is BaseRTT/2. With a GeoTopology
// whose DC blocks align with the shard split (e.g. equal DCs, one shard per
// DC), every cross-shard edge is a WAN edge and the lookahead widens to the
// minimum cross-DC one-way base latency — WAN jitter is additive and
// non-negative, so the base stays a true lower bound and the conservative
// window engine stays correct.
func PlanShards(cfg Config, shards int) ShardPlan {
	if shards < 1 {
		shards = 1
	}
	if shards > cfg.Nodes {
		shards = cfg.Nodes
	}
	p := ShardPlan{Shards: shards, NodeShard: make([]int, cfg.Nodes)}
	for i := 0; i < cfg.Nodes; i++ {
		p.NodeShard[i] = i * shards / cfg.Nodes
	}
	if shards == 1 {
		return p // no cross-shard edges; lookahead is unused
	}
	// Minimum one-way latency over all cross-shard node pairs, globally and
	// per shard pair. Quadratic in node count, but it runs once per
	// deployment on at most a few hundred nodes.
	p.PairLookahead = make([][]time.Duration, shards)
	for a := range p.PairLookahead {
		p.PairLookahead[a] = make([]time.Duration, shards)
	}
	min := time.Duration(0)
	for i := 0; i < cfg.Nodes; i++ {
		for j := i + 1; j < cfg.Nodes; j++ {
			a, b := p.NodeShard[i], p.NodeShard[j]
			if a == b {
				continue
			}
			oneWay := cfg.minOneWay(i, j)
			if min == 0 || oneWay < min {
				min = oneWay
			}
			// minOneWay is symmetric in (i, j), so the floor holds for
			// both directions of the shard pair.
			if cur := p.PairLookahead[a][b]; cur == 0 || oneWay < cur {
				p.PairLookahead[a][b] = oneWay
				p.PairLookahead[b][a] = oneWay
			}
		}
	}
	// A shard pair with no node pairs crossing it cannot occur with the
	// contiguous split (every shard is non-empty), but guard anyway: an
	// empty floor would mean "no constraint", which the group API reads as
	// "at least the global lookahead".
	for a := 0; a < shards; a++ {
		for b := 0; b < shards; b++ {
			if a != b && p.PairLookahead[a][b] == 0 {
				p.PairLookahead[a][b] = min
			}
		}
	}
	p.Lookahead = min
	return p
}
