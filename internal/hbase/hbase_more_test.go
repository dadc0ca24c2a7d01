package hbase

import (
	"fmt"
	"testing"
	"time"

	"cloudbench/internal/cluster"
	"cloudbench/internal/kv"
	"cloudbench/internal/sim"
)

func TestScanLimitRespectedAtRegionEdge(t *testing.T) {
	k := sim.NewKernel(1)
	_, cl := testDB(k, 4, 3)
	k.Spawn("client", func(p *sim.Proc) {
		for i := 1248; i < 1252; i++ {
			cl.Insert(p, key(i), kv.Record{"a": kv.SizedValue(1)})
		}
		rows, err := cl.Scan(p, key(1248), 2, nil)
		if err != nil || len(rows) != 2 {
			t.Fatalf("rows=%d err=%v", len(rows), err)
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestScanPastLastRegionTerminates(t *testing.T) {
	k := sim.NewKernel(1)
	_, cl := testDB(k, 4, 3)
	k.Spawn("client", func(p *sim.Proc) {
		cl.Insert(p, key(9998), kv.Record{"a": kv.SizedValue(1)})
		rows, err := cl.Scan(p, key(9990), 50, nil)
		if err != nil {
			t.Fatal(err)
		}
		if len(rows) != 1 || rows[0].Key != key(9998) {
			t.Fatalf("rows = %+v", rows)
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestScanProjectsFields(t *testing.T) {
	k := sim.NewKernel(1)
	_, cl := testDB(k, 4, 3)
	k.Spawn("client", func(p *sim.Proc) {
		cl.Insert(p, key(1), kv.Record{"a": kv.SizedValue(1), "b": kv.SizedValue(2)})
		rows, err := cl.Scan(p, key(1), 1, []string{"b"})
		if err != nil || len(rows) != 1 {
			t.Fatalf("rows=%v err=%v", rows, err)
		}
		if rec := rows[0].Record(); len(rec) != 1 || rec["b"].Bytes() != 2 || rows[0].Bytes() != rec.Bytes() {
			t.Fatalf("projection = %v (%d bytes)", rec, rows[0].Bytes())
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestReadProjectsFields(t *testing.T) {
	k := sim.NewKernel(1)
	_, cl := testDB(k, 4, 3)
	k.Spawn("client", func(p *sim.Proc) {
		cl.Insert(p, key(1), kv.Record{"a": kv.SizedValue(1), "b": kv.SizedValue(2)})
		rec, err := cl.Read(p, key(1), []string{"a"})
		if err != nil || len(rec) != 1 || rec["a"].Bytes() != 1 {
			t.Fatalf("rec=%v err=%v", rec, err)
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestHigherRFWritesMoreHDFSBytes(t *testing.T) {
	flushBytes := func(rf int) int64 {
		k := sim.NewKernel(2)
		db, cl := testDB(k, 6, rf)
		k.Spawn("client", func(p *sim.Proc) {
			for i := 0; i < 300; i++ {
				cl.Insert(p, key(i), kv.Record{"f": kv.SizedValue(500)})
			}
			db.FlushAll()
			p.Sleep(10 * time.Second)
		})
		if err := k.Run(); err != nil {
			t.Fatal(err)
		}
		var total int64
		for _, s := range db.servers {
			total += s.Node.Disk.BytesWri
		}
		return total
	}
	b1, b3 := flushBytes(1), flushBytes(3)
	// Flush traffic should scale roughly with RF (plus the same WAL).
	if b3 < b1*3/2 {
		t.Fatalf("rf3 wrote %d bytes vs rf1 %d; replication not amplifying flushes", b3, b1)
	}
}

func TestEnginesExposed(t *testing.T) {
	k := sim.NewKernel(4)
	db, _ := testDB(k, 4, 3)
	if len(db.Engines()) != len(db.regions) {
		t.Fatal("engines/regions mismatch")
	}
}

func TestDeterministicAcrossRuns(t *testing.T) {
	run := func() string {
		k := sim.NewKernel(77)
		_, cl := testDB(k, 4, 3)
		var log string
		k.Spawn("client", func(p *sim.Proc) {
			for i := 0; i < 40; i++ {
				cl.Insert(p, key(i*7), kv.Record{"f": kv.SizedValue(i + 1)})
				log += fmt.Sprintf("%v;", p.Now())
			}
		})
		if err := k.Run(); err != nil {
			t.Fatal(err)
		}
		return log
	}
	if a, b := run(), run(); a != b {
		t.Fatal("hbase runs diverge with same seed")
	}
}

func TestMasterFailureBlocksNewLookupsOnly(t *testing.T) {
	k := sim.NewKernel(5)
	// Master on its own node (not the client machine) so failing it does
	// not take the client down with it.
	ccfg := cluster.DefaultConfig()
	ccfg.Nodes = 6
	c := cluster.New(k, ccfg)
	var splits []kv.Key
	for i := 1; i < 8; i++ {
		splits = append(splits, key(i*1250))
	}
	db := New(k, DefaultConfig(), c.Nodes[:4], c.Nodes[4], splits)
	cl := db.NewClient(c.Nodes[5])
	k.Spawn("client", func(p *sim.Proc) {
		// Warm META for key(1)'s region.
		cl.Insert(p, key(1), kv.Record{"f": kv.SizedValue(1)})
		db.master.Fail()
		// Cached region: still reachable (master off the data path)…
		if _, err := cl.Read(p, key(1), nil); err != nil {
			t.Errorf("cached-region read failed: %v", err)
		}
		// …but a region never seen needs META and fails.
		if _, err := cl.Read(p, key(9000), nil); err != kv.ErrUnavailable {
			t.Errorf("uncached-region read err = %v, want unavailable", err)
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
}
