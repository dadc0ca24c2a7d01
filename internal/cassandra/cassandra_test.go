package cassandra

import (
	"fmt"
	"testing"
	"time"

	"cloudbench/internal/cluster"
	"cloudbench/internal/kv"
	"cloudbench/internal/sim"
)

// testDB builds servers on nodes 0..n-2 and a client on the last node.
func testDB(k *sim.Kernel, servers, rf int, mutate func(*Config)) (*DB, *Client) {
	ccfg := cluster.DefaultConfig()
	ccfg.Nodes = servers + 1
	c := cluster.New(k, ccfg)
	cfg := DefaultConfig()
	cfg.Replication = rf
	if mutate != nil {
		mutate(&cfg)
	}
	db := New(k, cfg, c.Nodes[:servers])
	return db, db.NewClient(c.Nodes[servers])
}

func key(i int) kv.Key { return kv.Key(fmt.Sprintf("user%08d", i)) }

func TestRingReplicasDistinctAndStable(t *testing.T) {
	k := sim.NewKernel(1)
	db, _ := testDB(k, 6, 3, nil)
	for i := 0; i < 100; i++ {
		a := db.ReplicasFor(key(i))
		b := db.ReplicasFor(key(i))
		if len(a) != 3 {
			t.Fatalf("replicas = %d", len(a))
		}
		seen := map[*Replica]bool{}
		for j := range a {
			if a[j] != b[j] {
				t.Fatal("placement not deterministic")
			}
			if seen[a[j]] {
				t.Fatal("duplicate replica")
			}
			seen[a[j]] = true
		}
	}
}

func TestRingBalance(t *testing.T) {
	k := sim.NewKernel(2)
	db, _ := testDB(k, 8, 1, nil)
	counts := map[*Replica]int{}
	const keys = 4000
	for i := 0; i < keys; i++ {
		counts[db.ReplicasFor(key(i))[0]]++
	}
	want := keys / 8
	for rep, n := range counts {
		if n < want/4 || n > want*4 {
			t.Fatalf("replica %v owns %d of %d keys (want ~%d): imbalanced ring", rep.Node.Name, n, keys, want)
		}
	}
}

func TestWriteReadRoundTripAtOne(t *testing.T) {
	k := sim.NewKernel(1)
	_, cl := testDB(k, 5, 3, nil)
	k.Spawn("client", func(p *sim.Proc) {
		if err := cl.Insert(p, key(1), kv.Record{"f": kv.SizedValue(100)}); err != nil {
			t.Fatal(err)
		}
		p.Sleep(50 * time.Millisecond) // let replication settle
		rec, err := cl.Read(p, key(1), nil)
		if err != nil || rec["f"].Bytes() != 100 {
			t.Fatalf("rec=%v err=%v", rec, err)
		}
		if _, err := cl.Read(p, key(404), nil); err != kv.ErrNotFound {
			t.Fatalf("missing key err = %v", err)
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestQuorumReadYourWrites(t *testing.T) {
	// R+W > N: a QUORUM read immediately after a QUORUM write must see
	// it, for every key, despite replica lag.
	k := sim.NewKernel(13)
	_, base := testDB(k, 6, 3, nil)
	cl := base.WithConsistency(kv.Quorum, kv.Quorum)
	k.Spawn("client", func(p *sim.Proc) {
		for i := 0; i < 100; i++ {
			rec := kv.Record{"v": kv.SizedValue(i + 1)}
			if err := cl.Update(p, key(i), rec); err != nil {
				t.Fatal(err)
			}
			got, err := cl.Read(p, key(i), nil)
			if err != nil {
				t.Fatalf("read %d: %v", i, err)
			}
			if got["v"].Bytes() != i+1 {
				t.Fatalf("quorum read %d stale: %v", i, got)
			}
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestWriteAllReadOneSeesLatest(t *testing.T) {
	k := sim.NewKernel(17)
	_, base := testDB(k, 6, 3, nil)
	cl := base.WithConsistency(kv.One, kv.All)
	k.Spawn("client", func(p *sim.Proc) {
		for i := 0; i < 60; i++ {
			rec := kv.Record{"v": kv.SizedValue(i + 1)}
			if err := cl.Update(p, key(i), rec); err != nil {
				t.Fatal(err)
			}
			got, err := cl.Read(p, key(i), nil)
			if err != nil || got["v"].Bytes() != i+1 {
				t.Fatalf("W=ALL R=ONE stale at %d: %v %v", i, got, err)
			}
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestConsistencyOneAllowsStaleReadUnderReplicaLag(t *testing.T) {
	// Force replica lag by making one replica's node very slow, then
	// verify a ONE read served by the slow main replica can be stale —
	// and that the blocking repair machinery is what QUORUM uses to
	// avoid this.
	k := sim.NewKernel(23)
	db, cl := testDB(k, 4, 3, func(c *Config) { c.ReadRepairChance = 0 })
	k.Spawn("client", func(p *sim.Proc) {
		target := key(7)
		reps := db.ReplicasFor(target)
		main := reps[0]
		// Saturate the main replica's disk so its commit-log append (and
		// thus its memtable apply) lags far behind the others.
		for i := 0; i < 8; i++ {
			db.K.Spawn("hog", func(q *sim.Proc) {
				main.Node.Disk.Read(q, 64<<20, true) // ~0.5s each
			})
		}
		p.Sleep(time.Millisecond)
		if err := cl.Update(p, target, kv.Record{"v": kv.SizedValue(42)}); err != nil {
			t.Fatal(err)
		}
		// ONE read goes to the main replica, which has not applied yet.
		if _, err := cl.Read(p, target, nil); err == kv.ErrNotFound {
			db.StaleReads++ // expected: stale (key invisible on main)
		}
		if db.StaleReads == 0 {
			t.Skip("main replica applied in time; lag window not hit")
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestDigestMismatchTriggersBlockingRepair(t *testing.T) {
	k := sim.NewKernel(31)
	db, base := testDB(k, 4, 3, func(c *Config) { c.ReadRepairChance = 0 })
	cl := base.WithConsistency(kv.All, kv.One)
	k.Spawn("client", func(p *sim.Proc) {
		target := key(3)
		reps := db.ReplicasFor(target)
		// Write directly to only the main replica, leaving others stale.
		ver := db.Version()
		reps[0].Engine.Apply(p, target, kv.Record{"v": kv.SizedValue(9)}, ver)
		// An ALL read compares digests across all three replicas.
		rec, err := cl.Read(p, target, nil)
		if err != nil || rec["v"].Bytes() != 9 {
			t.Fatalf("rec=%v err=%v", rec, err)
		}
		if db.DigestMismatch == 0 || db.BlockingRepairs == 0 {
			t.Fatal("expected digest mismatch and blocking repair")
		}
		p.Sleep(time.Second)
		// All replicas converged.
		for _, rep := range reps {
			row := rep.Engine.Get(p, target)
			if row == nil || row.Version() != ver {
				t.Fatalf("replica %s not repaired: %+v", rep.Node.Name, row)
			}
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestBackgroundReadRepairConvergesReplicas(t *testing.T) {
	k := sim.NewKernel(37)
	db, cl := testDB(k, 4, 3, func(c *Config) { c.ReadRepairChance = 1.0 })
	k.Spawn("client", func(p *sim.Proc) {
		target := key(5)
		reps := db.ReplicasFor(target)
		ver := db.Version()
		reps[0].Engine.Apply(p, target, kv.Record{"v": kv.SizedValue(1)}, ver)
		// ONE read from main: digests not compared (single contact), but
		// chance=1 fires an async repair across all replicas.
		if _, err := cl.Read(p, target, nil); err != nil {
			t.Fatal(err)
		}
		p.Sleep(time.Second)
		if db.AsyncRepairs == 0 {
			t.Fatal("expected a background repair")
		}
		for _, rep := range reps {
			row := rep.Engine.Get(p, target)
			if row == nil || row.Version() != ver {
				t.Fatalf("replica %s not repaired", rep.Node.Name)
			}
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
}

// TestReadRepairKeepsTheTombstone: a row deleted and then written again
// holds a live field and, under its tombstone, a dead one. The repair of a
// replica that missed the delete must carry the tombstone, or the dead field
// comes back there — at the reconciled version, so no later repair fixes it
// and a ONE read that replica serves returns it.
func TestReadRepairKeepsTheTombstone(t *testing.T) {
	k := sim.NewKernel(43)
	db, base := testDB(k, 3, 3, func(c *Config) { c.ReadRepairChance = 1.0 })
	k.Spawn("client", func(p *sim.Proc) {
		target := key(7)
		reps := db.ReplicasFor(target)
		for i, rep := range reps {
			rep.Engine.Apply(p, target, kv.Record{"a": kv.SizedValue(10), "b": kv.SizedValue(20)}, 1)
			if i < 2 {
				rep.Engine.ApplyDelete(p, target, 2)
				rep.Engine.Apply(p, target, kv.Record{"a": kv.SizedValue(30)}, 3)
			}
		}
		if rec, err := base.WithConsistency(kv.All, kv.All).Read(p, target, nil); err != nil || len(rec) != 1 {
			t.Fatalf("ALL read = %v, %v; want field a alone", rec, err)
		}
		p.Sleep(time.Second)
		for _, rep := range reps {
			row := rep.Engine.Get(p, target)
			if rec := row.Record(); row.Version() != 3 || len(rec) != 1 || rec["a"].Bytes() != 30 {
				t.Errorf("replica %s after the repair: %v @%d, want field a alone @3", rep.Node.Name, rec, row.Version())
			}
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if db.RepairWrites == 0 {
		t.Fatal("the stale replica was never repaired")
	}
}

func TestHintedHandoffReplaysOnRecovery(t *testing.T) {
	k := sim.NewKernel(41)
	db, cl := testDB(k, 4, 3, nil)
	k.Spawn("client", func(p *sim.Proc) {
		target := key(11)
		reps := db.ReplicasFor(target)
		down := reps[2]
		down.Node.Fail()
		if err := cl.Insert(p, target, kv.Record{"v": kv.SizedValue(5)}); err != nil {
			t.Fatal(err) // ONE write succeeds with 2/3 alive
		}
		if db.HintsStored == 0 {
			t.Fatal("no hint stored for down replica")
		}
		p.Sleep(time.Second)
		down.Node.Recover()
		p.Sleep(30 * time.Second) // replay interval is 10s
		if db.HintsReplayed == 0 {
			t.Fatal("hint not replayed after recovery")
		}
		row := down.Engine.Get(p, target)
		if row == nil || !row.Live() {
			t.Fatal("recovered replica missing hinted write")
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestUnavailableWhenTooFewReplicas(t *testing.T) {
	k := sim.NewKernel(43)
	db, base := testDB(k, 4, 3, nil)
	cl := base.WithConsistency(kv.All, kv.All)
	k.Spawn("client", func(p *sim.Proc) {
		target := key(1)
		db.ReplicasFor(target)[1].Node.Fail()
		if err := cl.Update(p, target, kv.Record{"v": kv.SizedValue(1)}); err != kv.ErrUnavailable {
			t.Fatalf("write err = %v, want unavailable", err)
		}
		if _, err := cl.Read(p, target, nil); err != kv.ErrUnavailable {
			t.Fatalf("read err = %v, want unavailable", err)
		}
		// ONE still works.
		one := base.WithConsistency(kv.One, kv.One)
		if err := one.Update(p, target, kv.Record{"v": kv.SizedValue(1)}); err != nil {
			t.Fatalf("ONE write err = %v", err)
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestScanReturnsOrderedMergedRows(t *testing.T) {
	k := sim.NewKernel(47)
	_, cl := testDB(k, 5, 3, nil)
	k.Spawn("client", func(p *sim.Proc) {
		for i := 0; i < 30; i++ {
			if err := cl.Insert(p, key(i), kv.Record{"v": kv.SizedValue(i + 1)}); err != nil {
				t.Fatal(err)
			}
		}
		p.Sleep(100 * time.Millisecond)
		rows, err := cl.Scan(p, key(10), 5, nil)
		if err != nil {
			t.Fatal(err)
		}
		if len(rows) != 5 {
			t.Fatalf("rows = %d", len(rows))
		}
		for i, r := range rows {
			if r.Key != key(10+i) {
				t.Fatalf("row %d = %v", i, r.Key)
			}
			if rec := r.Record(); rec["v"].Bytes() != 11+i {
				t.Fatalf("row %d record = %v", i, rec)
			}
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestDeleteVisibleThroughScanAndRead(t *testing.T) {
	k := sim.NewKernel(53)
	_, base := testDB(k, 4, 3, nil)
	cl := base.WithConsistency(kv.Quorum, kv.Quorum)
	k.Spawn("client", func(p *sim.Proc) {
		cl.Insert(p, key(1), kv.Record{"v": kv.SizedValue(1)})
		cl.Insert(p, key(2), kv.Record{"v": kv.SizedValue(2)})
		if err := cl.Delete(p, key(1)); err != nil {
			t.Fatal(err)
		}
		if _, err := cl.Read(p, key(1), nil); err != kv.ErrNotFound {
			t.Fatalf("read deleted = %v", err)
		}
		p.Sleep(100 * time.Millisecond)
		rows, err := cl.Scan(p, key(1), 2, nil)
		if err != nil {
			t.Fatal(err)
		}
		if len(rows) == 0 || rows[0].Key != key(2) {
			t.Fatalf("scan after delete = %+v", rows)
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
}

// measureWriteLatency returns mean insert latency at the given RF and CL.
func measureWriteLatency(t *testing.T, rf int, wcl kv.ConsistencyLevel) time.Duration {
	t.Helper()
	k := sim.NewKernel(61)
	_, base := testDB(k, 8, rf, func(c *Config) { c.ReadRepairChance = 0 })
	cl := base.WithConsistency(kv.One, wcl)
	var total time.Duration
	const ops = 200
	k.Spawn("client", func(p *sim.Proc) {
		for i := 0; i < ops; i++ {
			start := p.Now()
			if err := cl.Insert(p, key(i*131%5000), kv.Record{"f": kv.SizedValue(1000)}); err != nil {
				t.Fatal(err)
			}
			total += p.Now().Sub(start)
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	return total / ops
}

func TestWriteLatencyFlatInRFAtOne(t *testing.T) {
	l1 := measureWriteLatency(t, 1, kv.One)
	l6 := measureWriteLatency(t, 6, kv.One)
	if l6 > 2*l1 {
		t.Fatalf("ONE write latency rf6=%v vs rf1=%v: should be nearly flat", l6, l1)
	}
}

func TestWriteLatencyGrowsWithConsistencyLevel(t *testing.T) {
	one := measureWriteLatency(t, 3, kv.One)
	all := measureWriteLatency(t, 3, kv.All)
	if all <= one {
		t.Fatalf("ALL write latency %v should exceed ONE %v", all, one)
	}
}

func TestReadRepairLoadGrowsWithRF(t *testing.T) {
	// F4 mechanism check: with read repair forced on, the repair traffic
	// per read grows with RF, so total disk work for the same op count
	// rises with the replication factor.
	work := func(rf int) int64 {
		k := sim.NewKernel(67)
		db, cl := testDB(k, 8, rf, func(c *Config) { c.ReadRepairChance = 1.0 })
		k.Spawn("client", func(p *sim.Proc) {
			for i := 0; i < 100; i++ {
				cl.Insert(p, key(i), kv.Record{"f": kv.SizedValue(1000)})
				cl.Read(p, key(i), nil)
			}
			p.Sleep(2 * time.Second)
		})
		if err := k.Run(); err != nil {
			t.Fatal(err)
		}
		var gets int64
		for _, e := range db.Engines() {
			gets += e.Gets
		}
		return gets
	}
	if w1, w6 := work(1), work(6); w6 <= w1 {
		t.Fatalf("repair work rf6=%d should exceed rf1=%d", w6, w1)
	}
}

func TestConcurrentClientsConvergence(t *testing.T) {
	k := sim.NewKernel(71)
	db, _ := testDB(k, 5, 3, nil)
	clientNode := db.reps[0].Node.Cluster().Nodes[5]
	for c := 0; c < 6; c++ {
		c := c
		cl := db.NewClient(clientNode).WithConsistency(kv.Quorum, kv.Quorum)
		k.Spawn(fmt.Sprintf("client%d", c), func(p *sim.Proc) {
			for i := 0; i < 40; i++ {
				kk := key(c*1000 + i)
				if err := cl.Insert(p, kk, kv.Record{"f": kv.SizedValue(100)}); err != nil {
					t.Errorf("insert: %v", err)
					return
				}
				if _, err := cl.Read(p, kk, nil); err != nil {
					t.Errorf("read: %v", err)
					return
				}
			}
		})
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if db.Writes != 240 || db.Reads != 240 {
		t.Fatalf("ops = %d/%d", db.Writes, db.Reads)
	}
}
