package cluster

import (
	"testing"
	"time"
)

func TestPlanShardsContiguous(t *testing.T) {
	cfg := DefaultConfig() // 16 nodes, single zone, BaseRTT 200µs
	p := PlanShards(cfg, 4)
	if p.Shards != 4 {
		t.Fatalf("shards = %d, want 4", p.Shards)
	}
	want := []int{0, 0, 0, 0, 1, 1, 1, 1, 2, 2, 2, 2, 3, 3, 3, 3}
	for i, s := range p.NodeShard {
		if s != want[i] {
			t.Errorf("node %d on shard %d, want %d", i, s, want[i])
		}
	}
	if p.Lookahead != cfg.BaseRTT/2 {
		t.Errorf("single-zone lookahead = %v, want BaseRTT/2 = %v", p.Lookahead, cfg.BaseRTT/2)
	}
}

func TestPlanShardsZoneAligned(t *testing.T) {
	cfg := DefaultConfig()
	rtt := 10 * time.Millisecond
	cfg.Geo = &GeoTopology{DCSizes: []int{4, 4, 4, 4}, WANOneWay: WANChain(4, rtt)}
	// 4 shards over 4 zones: every cross-shard pair crosses a zone, so the
	// lookahead widens to the inter-zone one-way latency — the cheaper
	// direction of one hop of the chain.
	p := PlanShards(cfg, 4)
	if want := rtt * 4 / 10; p.Lookahead != want {
		t.Errorf("zone-aligned lookahead = %v, want %v", p.Lookahead, want)
	}
	// 8 shards over 4 zones: shards split zones, so some cross-shard pairs
	// stay intra-zone and the lookahead falls back to BaseRTT/2.
	p = PlanShards(cfg, 8)
	if p.Lookahead != cfg.BaseRTT/2 {
		t.Errorf("zone-splitting lookahead = %v, want BaseRTT/2 = %v",
			p.Lookahead, cfg.BaseRTT/2)
	}
}

// TestPlanShardsPairLookahead: on a 3-DC WAN chain with one shard per DC,
// the per-pair floors must reflect per-pair distance — adjacent DCs get
// the one-hop floor, the end-to-end pair gets twice that — while the
// global Lookahead stays the overall minimum. This is the matrix adaptive
// window widening feeds on: the 0↔2 pair's windows can be twice as wide
// as the global lookahead alone would allow.
func TestPlanShardsPairLookahead(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Nodes = 9
	cfg.Geo = &GeoTopology{
		DCSizes:   []int{3, 3, 3},
		WANOneWay: WANChain(3, 80*time.Millisecond),
	}
	p := PlanShards(cfg, 3)
	oneHop := 32 * time.Millisecond // cheaper direction of an 80ms-RTT hop
	if p.Lookahead != oneHop {
		t.Fatalf("lookahead = %v, want %v", p.Lookahead, oneHop)
	}
	want := [][]time.Duration{
		{0, oneHop, 2 * oneHop},
		{oneHop, 0, oneHop},
		{2 * oneHop, oneHop, 0},
	}
	for a := 0; a < 3; a++ {
		for b := 0; b < 3; b++ {
			if p.PairLookahead[a][b] != want[a][b] {
				t.Errorf("pair %d->%d floor = %v, want %v", a, b, p.PairLookahead[a][b], want[a][b])
			}
		}
	}
	if one := PlanShards(cfg, 1); one.PairLookahead != nil {
		t.Error("single-shard plan should have no pair matrix")
	}
	// Every pair floor must be at least the global lookahead, or
	// sim.ShardGroup.SetPairLookahead would reject the matrix.
	for a := range p.PairLookahead {
		for b := range p.PairLookahead[a] {
			if a != b && p.PairLookahead[a][b] < p.Lookahead {
				t.Errorf("pair %d->%d floor %v below global lookahead %v",
					a, b, p.PairLookahead[a][b], p.Lookahead)
			}
		}
	}
}

func TestPlanShardsDegenerate(t *testing.T) {
	cfg := DefaultConfig()
	p := PlanShards(cfg, 1)
	if p.Lookahead != 0 {
		t.Errorf("single-shard lookahead = %v, want 0", p.Lookahead)
	}
	for i, s := range p.NodeShard {
		if s != 0 {
			t.Errorf("node %d on shard %d, want 0", i, s)
		}
	}
	// More shards than nodes clamps to one node per shard.
	cfg.Nodes = 3
	p = PlanShards(cfg, 8)
	if p.Shards != 3 {
		t.Errorf("shards = %d, want clamp to 3", p.Shards)
	}
	if got := p.NodeShard; got[0] == got[1] || got[1] == got[2] {
		t.Errorf("clamped plan not one node per shard: %v", got)
	}
}
