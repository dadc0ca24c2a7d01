package hbase

import (
	"fmt"
	"testing"
	"time"

	"cloudbench/internal/cluster"
	"cloudbench/internal/kv"
	"cloudbench/internal/sim"
)

// testDB builds a small deployment: servers on nodes 0..n-2, master and
// client on the last node, 8 regions split over the user keyspace.
func testDB(k *sim.Kernel, servers, rf int) (*DB, *Client) {
	ccfg := cluster.DefaultConfig()
	ccfg.Nodes = servers + 1
	c := cluster.New(k, ccfg)
	cfg := DefaultConfig()
	cfg.Replication = rf
	var splits []kv.Key
	for i := 1; i < 8; i++ {
		splits = append(splits, kv.Key(fmt.Sprintf("user%08d", i*1250)))
	}
	db := New(k, cfg, c.Nodes[:servers], c.Nodes[servers], splits)
	return db, db.NewClient(c.Nodes[servers])
}

func key(i int) kv.Key { return kv.Key(fmt.Sprintf("user%08d", i)) }

func TestRegionRouting(t *testing.T) {
	k := sim.NewKernel(1)
	db, _ := testDB(k, 4, 3)
	if len(db.regions) != 8 {
		t.Fatalf("regions = %d", len(db.regions))
	}
	for _, i := range []int{0, 1249, 1250, 9999} {
		r := db.regionFor(key(i))
		if key(i) < r.StartKey || (r.EndKey != "" && key(i) >= r.EndKey) {
			t.Fatalf("key %v routed to region [%v,%v)", key(i), r.StartKey, r.EndKey)
		}
	}
	// Regions spread across servers.
	seen := map[*RegionServer]bool{}
	for _, r := range db.regions {
		seen[r.Server] = true
	}
	if len(seen) != 4 {
		t.Fatalf("servers hosting regions = %d", len(seen))
	}
}

func TestInsertReadRoundTrip(t *testing.T) {
	k := sim.NewKernel(1)
	_, cl := testDB(k, 4, 3)
	k.Spawn("client", func(p *sim.Proc) {
		rec := kv.Record{"field0": kv.SizedValue(100)}
		if err := cl.Insert(p, key(42), rec); err != nil {
			t.Error(err)
		}
		got, err := cl.Read(p, key(42), nil)
		if err != nil {
			t.Error(err)
		}
		if got["field0"].Bytes() != 100 {
			t.Errorf("got %v", got)
		}
		if _, err := cl.Read(p, key(777), nil); err != kv.ErrNotFound {
			t.Errorf("missing key err = %v", err)
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestUpdateMergesFields(t *testing.T) {
	k := sim.NewKernel(1)
	_, cl := testDB(k, 4, 3)
	k.Spawn("client", func(p *sim.Proc) {
		cl.Insert(p, key(1), kv.Record{"a": kv.SizedValue(1), "b": kv.SizedValue(2)})
		cl.Update(p, key(1), kv.Record{"a": kv.SizedValue(9)})
		got, err := cl.Read(p, key(1), nil)
		if err != nil {
			t.Fatal(err)
		}
		if got["a"].Bytes() != 9 || got["b"].Bytes() != 2 {
			t.Errorf("got %v", got)
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestDeleteHidesKey(t *testing.T) {
	k := sim.NewKernel(1)
	_, cl := testDB(k, 4, 3)
	k.Spawn("client", func(p *sim.Proc) {
		cl.Insert(p, key(5), kv.Record{"a": kv.SizedValue(1)})
		if err := cl.Delete(p, key(5)); err != nil {
			t.Fatal(err)
		}
		if _, err := cl.Read(p, key(5), nil); err != kv.ErrNotFound {
			t.Errorf("err = %v", err)
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestScanCrossesRegionBoundaries(t *testing.T) {
	k := sim.NewKernel(1)
	_, cl := testDB(k, 4, 3)
	k.Spawn("client", func(p *sim.Proc) {
		// Regions split at 1250; insert around the boundary.
		for i := 1245; i < 1255; i++ {
			cl.Insert(p, key(i), kv.Record{"a": kv.SizedValue(10)})
		}
		rows, err := cl.Scan(p, key(1245), 10, nil)
		if err != nil {
			t.Fatal(err)
		}
		if len(rows) != 10 {
			t.Fatalf("scan rows = %d", len(rows))
		}
		for i, r := range rows {
			if r.Key != key(1245+i) {
				t.Fatalf("row %d key = %v", i, r.Key)
			}
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestStrongConsistencyReadAfterWrite(t *testing.T) {
	k := sim.NewKernel(3)
	_, cl := testDB(k, 4, 3)
	k.Spawn("client", func(p *sim.Proc) {
		for i := 0; i < 50; i++ {
			rec := kv.Record{"v": kv.SizedValue(i + 1)}
			if err := cl.Insert(p, key(i), rec); err != nil {
				t.Fatal(err)
			}
			got, err := cl.Read(p, key(i), nil)
			if err != nil || got["v"].Bytes() != i+1 {
				t.Fatalf("read-after-write violated at %d: %v %v", i, got, err)
			}
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
}

// measureWrite returns the mean write latency at the given replication
// factor and write path.
func measureWrite(t *testing.T, rf int, memRepl bool) time.Duration {
	t.Helper()
	k := sim.NewKernel(11)
	ccfg := cluster.DefaultConfig()
	ccfg.Nodes = 9
	c := cluster.New(k, ccfg)
	cfg := DefaultConfig()
	cfg.Replication = rf
	cfg.MemReplication = memRepl
	var splits []kv.Key
	for i := 1; i < 8; i++ {
		splits = append(splits, key(i*1250))
	}
	db := New(k, cfg, c.Nodes[:8], c.Nodes[8], splits)
	cl := db.NewClient(c.Nodes[8])
	var total time.Duration
	const ops = 200
	k.Spawn("client", func(p *sim.Proc) {
		for i := 0; i < ops; i++ {
			start := p.Now()
			if err := cl.Insert(p, key(i*37%10000), kv.Record{"f": kv.SizedValue(1000)}); err != nil {
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

func TestWriteLatencyFlatInRFWithMemReplication(t *testing.T) {
	l1 := measureWrite(t, 1, true)
	l6 := measureWrite(t, 6, true)
	// Paper finding F2: no significant change. Allow up to 2×.
	if l6 > 2*l1 {
		t.Fatalf("write latency rf6=%v vs rf1=%v: should be nearly flat", l6, l1)
	}
}

func TestSyncReplicationSlowerThanMemReplication(t *testing.T) {
	mem := measureWrite(t, 3, true)
	sync := measureWrite(t, 3, false)
	if sync <= mem {
		t.Fatalf("sync=%v should exceed mem=%v", sync, mem)
	}
}

func TestReadLatencyFlatInRF(t *testing.T) {
	measure := func(rf int) time.Duration {
		k := sim.NewKernel(5)
		db, cl := testDB(k, 6, rf)
		_ = db
		var total time.Duration
		const ops = 100
		k.Spawn("client", func(p *sim.Proc) {
			for i := 0; i < ops; i++ {
				cl.Insert(p, key(i), kv.Record{"f": kv.SizedValue(1000)})
			}
			for i := 0; i < ops; i++ {
				start := p.Now()
				if _, err := cl.Read(p, key(i), nil); err != nil {
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
	l1, l6 := measure(1), measure(6)
	ratio := float64(l6) / float64(l1)
	if ratio > 1.5 || ratio < 0.5 {
		t.Fatalf("read latency rf6=%v vs rf1=%v: should be flat", l6, l1)
	}
}

func TestMetaLookupCachedAfterFirstOp(t *testing.T) {
	k := sim.NewKernel(1)
	db, cl := testDB(k, 4, 3)
	k.Spawn("client", func(p *sim.Proc) {
		cl.Insert(p, key(1), kv.Record{"a": kv.SizedValue(1)})
		before := db.master.CPU.BusyTime()
		cl.Insert(p, key(2), kv.Record{"a": kv.SizedValue(1)}) // same region
		if db.master.CPU.BusyTime() != before {
			t.Error("second op paid a META lookup")
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestServerDownUnavailable(t *testing.T) {
	k := sim.NewKernel(1)
	db, cl := testDB(k, 4, 3)
	k.Spawn("client", func(p *sim.Proc) {
		r := db.regionFor(key(1))
		r.Server.Node.Fail()
		if err := cl.Insert(p, key(1), kv.Record{"a": kv.SizedValue(1)}); err != kv.ErrUnavailable {
			t.Errorf("err = %v", err)
		}
		if _, err := cl.Read(p, key(1), nil); err != kv.ErrUnavailable {
			t.Errorf("err = %v", err)
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestFlushAllPersistsToHDFS(t *testing.T) {
	k := sim.NewKernel(1)
	db, cl := testDB(k, 4, 3)
	k.Spawn("client", func(p *sim.Proc) {
		for i := 0; i < 200; i++ {
			cl.Insert(p, key(i), kv.Record{"f": kv.SizedValue(500)})
		}
		db.FlushAll()
		p.Sleep(5 * time.Second)
		if db.FS().BlocksWritten == 0 {
			t.Error("no HDFS blocks written by flush")
		}
		// Data still readable from store files.
		if _, err := cl.Read(p, key(10), nil); err != nil {
			t.Error(err)
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestConcurrentClientsNoInterference(t *testing.T) {
	k := sim.NewKernel(9)
	db, _ := testDB(k, 4, 3)
	clientNode := db.master
	errs := 0
	for c := 0; c < 8; c++ {
		c := c
		cl := db.NewClient(clientNode)
		k.Spawn(fmt.Sprintf("client%d", c), func(p *sim.Proc) {
			for i := 0; i < 50; i++ {
				kk := key(c*1000 + i)
				if err := cl.Insert(p, kk, kv.Record{"f": kv.SizedValue(100)}); err != nil {
					errs++
				}
				if _, err := cl.Read(p, kk, nil); err != nil {
					errs++
				}
			}
		})
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if errs != 0 {
		t.Fatalf("errors = %d", errs)
	}
}
