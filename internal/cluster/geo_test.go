package cluster

import (
	"testing"
	"time"

	"cloudbench/internal/sim"
)

// geoConfig is a 2-DC topology: 3 nodes per DC, 80ms RTT between them.
func geoConfig(jitter time.Duration) Config {
	cfg := DefaultConfig()
	cfg.Nodes = 6
	cfg.Geo = &GeoTopology{
		DCSizes:   []int{3, 3},
		WANOneWay: WANChain(2, 80*time.Millisecond),
		WANJitter: jitter,
	}
	return cfg
}

func TestWANChainMatrix(t *testing.T) {
	rtt := 100 * time.Millisecond
	m := WANChain(3, rtt)
	for i := 0; i < 3; i++ {
		if m[i][i] != 0 {
			t.Fatalf("diagonal [%d][%d] = %v", i, i, m[i][i])
		}
		for j := 0; j < 3; j++ {
			if i == j {
				continue
			}
			hops := j - i
			if hops < 0 {
				hops = -hops
			}
			if got := m[i][j] + m[j][i]; got != time.Duration(hops)*rtt {
				t.Fatalf("pair (%d,%d) RTT = %v, want %v", i, j, got, time.Duration(hops)*rtt)
			}
		}
	}
	if m[0][1] <= m[1][0] {
		t.Fatalf("chain not asymmetric: %v vs %v", m[0][1], m[1][0])
	}
}

func TestGeoZoneAssignment(t *testing.T) {
	k := sim.NewKernel(1)
	cfg := DefaultConfig()
	cfg.Nodes = 7
	cfg.Geo = &GeoTopology{
		DCSizes:   []int{4, 3},
		WANOneWay: WANChain(2, 80*time.Millisecond),
	}
	c := New(k, cfg)
	wantZone := []int{0, 0, 0, 0, 1, 1, 1}
	for i, n := range c.Nodes {
		if n.Zone != wantZone[i] {
			t.Fatalf("node %d: zone=%d, want %d", i, n.Zone, wantZone[i])
		}
	}
	if c.Zones() != 2 {
		t.Fatalf("Zones() = %d", c.Zones())
	}
	// One rack is one DC holding every node.
	cfg.Geo = nil
	if c := New(k, cfg); c.Zones() != 1 || len(c.ZoneNodes(0)) != cfg.Nodes {
		t.Fatalf("single rack: Zones() = %d, %d nodes in zone 0", c.Zones(), len(c.ZoneNodes(0)))
	}
}

// TestWANDelayJitterBoundedAndSeeded: jitter draws stay inside
// [base, base+WANJitter), and because every directed link owns a stream
// derived only from (kernel seed, src, dst), two clusters built from
// equal-seed kernels see identical per-message WAN delays.
func TestWANDelayJitterBoundedAndSeeded(t *testing.T) {
	jitter := 5 * time.Millisecond
	base := WANChain(2, 80*time.Millisecond)[0][1]
	sample := func(seed int64) []time.Duration {
		k := sim.NewKernel(seed)
		c := New(k, geoConfig(jitter))
		out := make([]time.Duration, 20)
		for i := range out {
			out[i] = c.wanDelay(0, 1)
		}
		return out
	}
	a := sample(7)
	b := sample(7)
	other := sample(8)
	varies := false
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("draw %d differs across equal seeds: %v vs %v", i, a[i], b[i])
		}
		if a[i] < base || a[i] >= base+jitter {
			t.Fatalf("draw %d = %v outside [%v, %v)", i, a[i], base, base+jitter)
		}
		if a[i] != other[i] {
			varies = true
		}
	}
	if !varies {
		t.Fatal("jitter stream ignores the kernel seed")
	}
}

// TestWANDirectionsAsymmetric: the measured one-way latencies of the two
// directions of a DC pair differ per the WANOneWay matrix but sum to the
// configured round trip.
func TestWANDirectionsAsymmetric(t *testing.T) {
	k := sim.NewKernel(2)
	c := New(k, geoConfig(0))
	var fwd, rev time.Duration
	k.Spawn("probe", func(p *sim.Proc) {
		a, b := c.Nodes[0], c.Nodes[3]
		start := p.Now()
		a.SendTo(p, b, 100)
		fwd = p.Now().Sub(start)
		start = p.Now()
		b.SendTo(p, a, 100)
		rev = p.Now().Sub(start)
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if fwd <= rev {
		t.Fatalf("fwd=%v rev=%v: directions not asymmetric", fwd, rev)
	}
	sum := fwd + rev
	if sum < 80*time.Millisecond || sum > 81*time.Millisecond {
		t.Fatalf("round trip %v, want ~80ms", sum)
	}
}

func TestPartitionDropsAtSendAndHeals(t *testing.T) {
	k := sim.NewKernel(3)
	c := New(k, geoConfig(0))
	var during, within, after bool
	k.Spawn("probe", func(p *sim.Proc) {
		c.PartitionZones(0, 1)
		during = c.Nodes[0].SendTo(p, c.Nodes[3], 100)
		within = c.Nodes[0].SendTo(p, c.Nodes[1], 100) // intra-DC unaffected
		c.HealZones(0, 1)
		after = c.Nodes[0].SendTo(p, c.Nodes[3], 100)
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if during {
		t.Fatal("cross-DC send succeeded during partition")
	}
	if !within {
		t.Fatal("intra-DC send dropped by an unrelated partition")
	}
	if !after {
		t.Fatal("cross-DC send failed after heal")
	}
	if c.ZonesPartitioned(0, 1) {
		t.Fatal("ZonesPartitioned still true after heal")
	}
}

// TestPartitionDropsMidFlight: like a mid-flight node failure, a message
// already crossing the WAN when the partition cuts is lost — liveness of
// the link is checked again at arrival time.
func TestPartitionDropsMidFlight(t *testing.T) {
	k := sim.NewKernel(4)
	c := New(k, geoConfig(0))
	var ok bool
	k.Spawn("sender", func(p *sim.Proc) {
		ok = c.Nodes[0].SendTo(p, c.Nodes[3], 100) // ~48ms in flight
	})
	k.After(10*time.Millisecond, func() { c.PartitionZones(0, 1) })
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Fatal("send delivered across a link partitioned mid-flight")
	}
	if c.Nodes[3].BytesReceived != 0 {
		t.Fatalf("partitioned node counted %d received bytes", c.Nodes[3].BytesReceived)
	}
}

// TestPartitionHealSameInstantKeepsCallOrder mirrors the fail/recover
// ordering contract: simultaneous PartitionZones and HealZones resolve in
// registration order, deterministically.
func TestPartitionHealSameInstantKeepsCallOrder(t *testing.T) {
	k := sim.NewKernel(5)
	c := New(k, geoConfig(0))
	k.After(time.Millisecond, func() { c.PartitionZones(0, 1) })
	k.After(time.Millisecond, func() { c.HealZones(0, 1) })
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if c.ZonesPartitioned(0, 1) {
		t.Fatal("partition-then-heal at the same instant left the link cut")
	}

	k2 := sim.NewKernel(5)
	c2 := New(k2, geoConfig(0))
	k2.After(time.Millisecond, func() { c2.HealZones(0, 1) })
	k2.After(time.Millisecond, func() { c2.PartitionZones(0, 1) })
	if err := k2.Run(); err != nil {
		t.Fatal(err)
	}
	if !c2.ZonesPartitioned(0, 1) {
		t.Fatal("heal-then-partition at the same instant left the link up")
	}
}

// TestPlanShardsGeoLookahead: with one shard per DC the every cross-shard
// edge is a WAN edge, so the conservative lookahead is the cheaper
// direction of the cross-DC base latency — jitter is additive and cannot
// shrink it.
func TestPlanShardsGeoLookahead(t *testing.T) {
	cfg := geoConfig(5 * time.Millisecond)
	plan := PlanShards(cfg, 2)
	for i := 0; i < cfg.Nodes; i++ {
		if want := cfg.zoneOf(i); plan.NodeShard[i] != want {
			t.Fatalf("node %d on shard %d, want DC-aligned shard %d", i, plan.NodeShard[i], want)
		}
	}
	want := WANChain(2, 80*time.Millisecond)[1][0] // cheaper direction: 32ms
	if plan.Lookahead != want {
		t.Fatalf("lookahead = %v, want %v", plan.Lookahead, want)
	}
}
