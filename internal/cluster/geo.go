package cluster

import (
	"fmt"
	"time"

	"cloudbench/internal/sim"
)

// GeoTopology describes a multi-datacenter layout. Nodes are assigned to
// data centers in contiguous blocks (DCSizes); each DC is one rack, so
// traffic inside it pays BaseRTT, and traffic between DCs pays a
// per-direction WAN base latency plus bounded seeded jitter.
//
// The WAN model is deliberately a pure function of (topology, kernel seed):
// every directed DC pair owns its own jitter stream seeded from the kernel
// seed, so the i-th message on a link sees the same jitter whatever else is
// in flight, and WANOneWay stays a true lower bound — which is what lets
// PlanShards use the cross-DC minimum as the conservative shard lookahead.
type GeoTopology struct {
	// DCSizes is the number of nodes in each data center; nodes are
	// assigned in contiguous blocks by id and the sizes must sum to
	// Config.Nodes.
	DCSizes []int
	// WANOneWay[src][dst] is the base one-way latency from DC src to DC
	// dst. The matrix may be asymmetric (routing rarely gives both
	// directions of a long-haul path the same delay); the diagonal is
	// ignored.
	WANOneWay [][]time.Duration
	// WANJitter bounds the additive per-message jitter on WAN legs: each
	// cross-DC message pays an extra delay drawn uniformly from
	// [0, WANJitter) off the link's seeded stream. Zero disables jitter.
	WANJitter time.Duration
}

// WANChain returns an asymmetric one-way latency matrix for dcs data
// centers on a chain, adjacent DCs rtt apart round trip (k hops apart pay
// k·rtt). Each round trip splits 60/40 between the directions — the
// low-index → high-index leg is the slower one — so the matrix exercises
// asymmetric routing while keeping pair RTTs exact.
func WANChain(dcs int, rtt time.Duration) [][]time.Duration {
	m := make([][]time.Duration, dcs)
	for i := range m {
		m[i] = make([]time.Duration, dcs)
		for j := range m[i] {
			if i == j {
				continue
			}
			hops := j - i
			if hops < 0 {
				hops = -hops
			}
			total := time.Duration(hops) * rtt
			if i < j {
				m[i][j] = total * 6 / 10
			} else {
				m[i][j] = total * 4 / 10
			}
		}
	}
	return m
}

// wanLinkSeed derives the jitter-stream seed for the directed WAN link
// src→dst from the kernel seed. Keeping the derivation explicit (and the
// argument name ending in "seed") is what lets the seedflow analyzer prove
// the link jitter's provenance back to the experiment seed.
func wanLinkSeed(kernelSeed int64, src, dst int) uint64 {
	s := uint64(kernelSeed) ^ 0x9e3779b97f4a7c15
	s ^= uint64(src+1) * 0xbf58476d1ce4e5b9
	s ^= uint64(dst+1) * 0x94d049bb133111eb
	return s
}

// geoState is the cluster-side WAN machinery: per-directed-link jitter
// streams and the zone partition matrix.
type geoState struct {
	jitter [][]*sim.Source // [src][dst], nil entries on the diagonal
	cut    [][]bool        // [a][b] true when the DC pair is partitioned
}

// newGeoState validates the topology against cfg and builds the link
// streams from the kernel seed.
func newGeoState(k *sim.Kernel, cfg Config) *geoState {
	g := cfg.Geo
	total := 0
	for _, n := range g.DCSizes {
		total += n
	}
	if total != cfg.Nodes {
		panic(fmt.Sprintf("cluster: GeoTopology DCSizes sum %d != Nodes %d", total, cfg.Nodes))
	}
	dcs := len(g.DCSizes)
	if len(g.WANOneWay) != dcs {
		panic(fmt.Sprintf("cluster: GeoTopology WANOneWay is %d×, want %d×%d", len(g.WANOneWay), dcs, dcs))
	}
	gs := &geoState{
		jitter: make([][]*sim.Source, dcs),
		cut:    make([][]bool, dcs),
	}
	for i := 0; i < dcs; i++ {
		gs.jitter[i] = make([]*sim.Source, dcs)
		gs.cut[i] = make([]bool, dcs)
		for j := 0; j < dcs; j++ {
			if i == j || g.WANJitter <= 0 {
				continue
			}
			gs.jitter[i][j] = sim.NewSource(wanLinkSeed(k.Seed(), i, j))
		}
	}
	return gs
}

// wanDelay returns the one-way propagation delay for a message crossing
// from DC src to DC dst: the link's base latency plus one jitter draw from
// the link's seeded stream.
func (c *Cluster) wanDelay(src, dst int) time.Duration {
	g := c.Config.Geo
	d := g.WANOneWay[src][dst]
	if s := c.geo.jitter[src][dst]; s != nil {
		d += time.Duration(s.Uint64() % uint64(g.WANJitter))
	}
	return d
}

// PartitionZones cuts the WAN link between zones a and b in both
// directions: messages between the two DCs are dropped (at send, and at
// receive for messages already in flight) until HealZones. Intra-DC
// traffic and other DC pairs are unaffected. No-op without a GeoTopology.
func (c *Cluster) PartitionZones(a, b int) { c.setZoneCut(a, b, true) }

// HealZones restores the WAN link between zones a and b.
func (c *Cluster) HealZones(a, b int) { c.setZoneCut(a, b, false) }

func (c *Cluster) setZoneCut(a, b int, cut bool) {
	if c.geo == nil || a == b {
		return
	}
	c.geo.cut[a][b] = cut
	c.geo.cut[b][a] = cut
}

// ZonesPartitioned reports whether the WAN link between zones a and b is
// currently cut.
func (c *Cluster) ZonesPartitioned(a, b int) bool {
	if c.geo == nil || a == b {
		return false
	}
	return c.geo.cut[a][b]
}

// zoneCut reports whether traffic between the two zones is dropped.
func (c *Cluster) zoneCut(a, b int) bool {
	return c.geo != nil && a != b && c.geo.cut[a][b]
}

// zoneOf returns the zone (data center) of node i: its contiguous DCSizes
// block, or 0 on a single rack. New and PlanShards share it so
// execution-shard planning can never drift from the topology the cluster
// actually builds.
func (cfg *Config) zoneOf(i int) int {
	g := cfg.Geo
	if g == nil {
		return 0
	}
	for z, size := range g.DCSizes {
		if i < size {
			return z
		}
		i -= size
	}
	return len(g.DCSizes) - 1
}

// minOneWay returns the minimum possible one-way latency between nodes i
// and j — the propagation floor with zero jitter and an idle NIC. For
// cross-DC pairs this takes the cheaper direction, since messages flow
// both ways across a shard boundary. PlanShards builds its conservative
// lookahead from it.
func (cfg *Config) minOneWay(i, j int) time.Duration {
	zi, zj := cfg.zoneOf(i), cfg.zoneOf(j)
	if zi == zj {
		return cfg.BaseRTT / 2
	}
	return min(cfg.Geo.WANOneWay[zi][zj], cfg.Geo.WANOneWay[zj][zi])
}
