package cassandra

import (
	"errors"
	"strings"
	"testing"
	"time"

	"cloudbench/internal/cluster"
	"cloudbench/internal/kv"
	"cloudbench/internal/sim"
)

// multiDCDB builds a GeoTopology cluster of len(perDC) data centers with
// spd servers each, replicated per DCReplicas, and a client attached in
// DC 0. Each DC block holds spd server nodes plus one client-attach node.
func multiDCDB(k *sim.Kernel, spd int, perDC []int, rtt time.Duration) (*DB, *Client, *cluster.Cluster) {
	dcs := len(perDC)
	ccfg := cluster.DefaultConfig()
	ccfg.Nodes = dcs * (spd + 1)
	sizes := make([]int, dcs)
	for i := range sizes {
		sizes[i] = spd + 1
	}
	ccfg.Geo = &cluster.GeoTopology{DCSizes: sizes, WANOneWay: cluster.WANChain(dcs, rtt)}
	c := cluster.New(k, ccfg)
	cfg := DefaultConfig()
	cfg.DCReplicas = perDC
	var servers []*cluster.Node
	for d := 0; d < dcs; d++ {
		servers = append(servers, c.Nodes[d*(spd+1):d*(spd+1)+spd]...)
	}
	db := New(k, cfg, servers)
	client := db.NewClient(c.Nodes[spd]) // last node of the DC-0 block
	return db, client, c
}

func TestDCReplicasPlacement(t *testing.T) {
	k := sim.NewKernel(11)
	db, _, _ := multiDCDB(k, 3, []int{2, 1}, 80*time.Millisecond)
	for i := 0; i < 200; i++ {
		reps := db.ReplicasFor(key(i))
		if len(reps) != 3 {
			t.Fatalf("key %d: %d replicas", i, len(reps))
		}
		perZone := [2]int{}
		for _, r := range reps {
			perZone[r.Node.Zone]++
		}
		if perZone[0] != 2 || perZone[1] != 1 {
			t.Fatalf("key %d: placement %v, want [2 1]", i, perZone)
		}
	}
}

// readLevel pairs a write level with the read level the tests use beside
// it: EACH_QUORUM is write-only, so its writes are read back at
// LOCAL_QUORUM, which their local majority intersects.
func readLevel(write kv.ConsistencyLevel) kv.ConsistencyLevel {
	if write == kv.EachQuorum {
		return kv.LocalQuorum
	}
	return write
}

// TestEachQuorumReadsRefusedByName: Cassandra 2.0 accepts EACH_QUORUM for
// writes only, so a client or a database configured to read at it panics
// and says so.
func TestEachQuorumReadsRefusedByName(t *testing.T) {
	refused := func(what string, fn func()) {
		t.Helper()
		defer func() {
			t.Helper()
			if r, _ := recover().(string); !strings.Contains(r, "EACH_QUORUM is a write-only level") {
				t.Errorf("%s: recovered %q, want a panic naming EACH_QUORUM as write-only", what, r)
			}
		}()
		fn()
	}
	k := sim.NewKernel(11)
	_, base, c := multiDCDB(k, 3, []int{2, 2}, 80*time.Millisecond)
	refused("WithConsistency", func() { base.WithConsistency(kv.EachQuorum, kv.EachQuorum) })
	refused("New", func() {
		cfg := DefaultConfig()
		cfg.ReadCL = kv.EachQuorum
		New(k, cfg, c.Nodes)
	})
	// The write level is not refused.
	base.WithConsistency(kv.LocalQuorum, kv.EachQuorum)
}

func TestEachQuorumWritePaysWANButLocalQuorumDoesNot(t *testing.T) {
	k := sim.NewKernel(12)
	_, base, _ := multiDCDB(k, 3, []int{2, 2}, 80*time.Millisecond)
	lq := base.WithConsistency(kv.LocalQuorum, kv.LocalQuorum)
	eq := base.WithConsistency(kv.LocalQuorum, kv.EachQuorum)
	var lqW, eqW, lqR time.Duration
	k.Spawn("client", func(p *sim.Proc) {
		if err := lq.Insert(p, key(1), kv.Record{"v": kv.SizedValue(10)}); err != nil {
			t.Error(err)
			return
		}
		timed := func(fn func() error) time.Duration {
			start := p.Now()
			for i := 0; i < 10; i++ {
				if err := fn(); err != nil {
					t.Error(err)
					return 0
				}
			}
			return p.Now().Sub(start) / 10
		}
		lqW = timed(func() error { return lq.Update(p, key(1), kv.Record{"v": kv.SizedValue(1)}) })
		eqW = timed(func() error { return eq.Update(p, key(1), kv.Record{"v": kv.SizedValue(2)}) })
		lqR = timed(func() error { _, err := lq.Read(p, key(1), nil); return err })
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	// An EACH_QUORUM write pays the full 80ms WAN round trip (forward +
	// ack); LOCAL_QUORUM completes inside the DC.
	if eqW < 70*time.Millisecond {
		t.Fatalf("EACH_QUORUM write=%v did not cross the WAN", eqW)
	}
	if lqW > 10*time.Millisecond || lqR > 10*time.Millisecond {
		t.Fatalf("LOCAL_QUORUM write=%v read=%v paid a wide-area wait", lqW, lqR)
	}
}

func TestSingleForwardPerRemoteDC(t *testing.T) {
	k := sim.NewKernel(13)
	db, base, _ := multiDCDB(k, 4, []int{2, 3}, 80*time.Millisecond)
	lq := base.WithConsistency(kv.LocalQuorum, kv.LocalQuorum)
	const writes = 10
	k.Spawn("client", func(p *sim.Proc) {
		for i := 0; i < writes; i++ {
			if err := lq.Insert(p, key(i), kv.Record{"v": kv.SizedValue(8)}); err != nil {
				t.Error(err)
				return
			}
		}
		p.Sleep(time.Second) // wide-area relay settles
		for i := 0; i < writes; i++ {
			for _, rep := range db.ReplicasFor(key(i)) {
				row := rep.Engine.Get(p, key(i))
				if row == nil || !row.Live() {
					t.Errorf("key %d: replica %s (zone %d) missing the write",
						i, rep.Node.Name, rep.Node.Zone)
				}
			}
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	// One WAN message per write per remote DC — never one per remote
	// replica (DC 1 holds three replicas of every key).
	if db.InterDCForwards != writes {
		t.Fatalf("InterDCForwards = %d, want %d", db.InterDCForwards, writes)
	}
}

func TestPartitionFailsEachQuorumButNotLocalQuorum(t *testing.T) {
	k := sim.NewKernel(14)
	_, base, c := multiDCDB(k, 3, []int{2, 2}, 80*time.Millisecond)
	lq := base.WithConsistency(kv.LocalQuorum, kv.LocalQuorum)
	eq := base.WithConsistency(kv.LocalQuorum, kv.EachQuorum)
	k.Spawn("client", func(p *sim.Proc) {
		if err := eq.Insert(p, key(5), kv.Record{"v": kv.SizedValue(4)}); err != nil {
			t.Error(err)
			return
		}
		c.PartitionZones(0, 1)
		if err := eq.Update(p, key(5), kv.Record{"v": kv.SizedValue(5)}); !errors.Is(err, kv.ErrUnavailable) {
			t.Errorf("EACH_QUORUM under partition: err = %v, want unavailable", err)
		}
		if err := lq.Update(p, key(5), kv.Record{"v": kv.SizedValue(6)}); err != nil {
			t.Errorf("LOCAL_QUORUM under partition: %v", err)
		}
		c.HealZones(0, 1)
		if err := eq.Update(p, key(5), kv.Record{"v": kv.SizedValue(7)}); err != nil {
			t.Errorf("EACH_QUORUM after heal: %v", err)
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
}
