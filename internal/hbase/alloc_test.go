package hbase

import (
	"strings"
	"testing"
	"time"

	"cloudbench/internal/cluster"
	"cloudbench/internal/kv"
	"cloudbench/internal/sim"
)

// TestPointReadAllocs is cassandra's TestPointOpAllocs for the region
// server: in the steady state a read allocates nothing — it fills the record
// its client keeps, and a key rewritten in part since its flush, a memtable
// row over a store file's that the read has to snapshot and merge, lands in
// the client's scratch row — and neither does an update of a key the
// memstore holds: the replication to the peers runs on a pooled op and the
// WAL append waits on a recycled future.
func TestPointReadAllocs(t *testing.T) {
	measure := func(rewritten, update bool) float64 {
		k := sim.NewKernel(7)
		db, client := testDB(k, 4, 3)
		const records = 64
		keys := make([]kv.Key, records) // made up front: the op is all that is measured
		for i := range keys {
			keys[i] = key(i * 150)
		}
		var allocs float64
		k.Spawn("client", func(p *sim.Proc) {
			rec := kv.Record{}
			for _, f := range []string{"f0", "f1", "f2", "f3", "f4", "f5", "f6", "f7", "f8", "f9"} {
				rec[f] = kv.SizedValue(100)
			}
			for _, key := range keys {
				if err := client.Insert(p, key, rec); err != nil {
					t.Error(err)
					return
				}
			}
			db.FlushAll()
			p.Sleep(2 * time.Second)
			f3 := kv.Record{"f3": kv.SizedValue(7)}
			for i := 0; rewritten && i < records; i++ {
				if err := client.Update(p, keys[i], f3); err != nil {
					t.Error(err)
					return
				}
			}
			i := 0
			op := func() {
				if update {
					if err := client.Update(p, keys[i%records], f3); err != nil {
						t.Error(err)
					}
				} else if got, err := client.Read(p, keys[i%records], nil); err != nil || len(got) != 10 || rewritten != (got["f3"].Bytes() == 7) {
					t.Errorf("read %d: %v, err = %v", i, got, err)
				}
				i++
			}
			for range 2 * records {
				op()
			}
			allocs = testing.AllocsPerRun(4*records, op)
		})
		if err := k.Run(); err != nil {
			t.Fatal(err)
		}
		return allocs
	}
	flushed, rewritten, update := measure(false, false), measure(true, false), measure(true, true)
	t.Logf("allocs/op: read of a flushed key %.2f, of a key rewritten since the flush %.2f; update %.2f", flushed, rewritten, update)
	if flushed > 0 || rewritten > 0 || update > 0 {
		t.Errorf("steady-state point ops allocate: read of a flushed key %.2f/op, of a rewritten one %.2f/op, update %.2f/op, want 0", flushed, rewritten, update)
	}
}

// TestClientSharedByTwoProcessesPanicsByName: a Client's scratch row serves
// one read at a time, and the slice it returns from Scan one scan. A second
// process that reads through the same client while the first is inside the
// region server would overwrite the row the first is about to project — a
// second scan the views the first is collecting; the client refuses by name
// instead.
func TestClientSharedByTwoProcessesPanicsByName(t *testing.T) {
	verbs := map[string]func(c *Client, p *sim.Proc, i int){
		"Read": func(c *Client, p *sim.Proc, i int) { c.Read(p, key(i), nil) },
		"Scan": func(c *Client, p *sim.Proc, i int) { c.Scan(p, key(i), 5, nil) },
	}
	for verb, call := range verbs {
		t.Run(verb, func(t *testing.T) {
			k := sim.NewKernel(7)
			_, client := testDB(k, 4, 3)
			for i := 0; i < 2; i++ {
				k.Spawn("caller", func(p *sim.Proc) { call(client, p, i) })
			}
			defer func() {
				if r, _ := recover().(string); !strings.Contains(r, "hbase: Client."+verb) || !strings.Contains(r, "one process at a time") {
					t.Errorf("two processes on one client: recovered %q, want the client's own panic", r)
				}
			}()
			if err := k.Run(); err != nil {
				t.Fatal(err)
			}
			t.Error("two concurrent calls through one client both returned")
		})
	}
}

// TestFailedWriteHoldsItsOpUntilLegsFinish is cassandra's
// TestTimedOutReadHoldsItsOpUntilLegsFinish for the region server's pooled
// write. Server 0 replicates to nodes 1 and 2; node 1 is down, so that leg
// fails at once, while the other leg sits out node 2's stop-the-world pause
// (the synchronous path's peers run on the region server's heap). The write
// acks only when every leg has finished, so it returns after the pause, and
// by then its op is back on the free list, where the healthy writes through
// server 3 that follow take it. CI runs this under -race -count=20.
func TestFailedWriteHoldsItsOpUntilLegsFinish(t *testing.T) {
	k := sim.NewKernel(7)
	ccfg := cluster.DefaultConfig()
	ccfg.Nodes = 6
	c := cluster.New(k, ccfg)
	cfg := DefaultConfig()
	cfg.MemReplication = false
	var splits []kv.Key
	for i := 1; i < 5; i++ {
		splits = append(splits, key(i*1000)) // region i on server i
	}
	db := New(k, cfg, c.Nodes[:5], c.Nodes[5], splits)
	client := db.NewClient(c.Nodes[5])
	rec := kv.Record{"v": kv.SizedValue(100)}
	const pause = 500 * time.Millisecond
	k.Spawn("client", func(p *sim.Proc) {
		for i := 0; i < 40; i++ { // locate every region, fill the pools
			if err := client.Insert(p, key(i%5*1000+i), rec); err != nil {
				t.Fatalf("insert %d: %v", i, err)
			}
		}
		c.Nodes[1].Fail()
		for round := 0; round < 6; round++ {
			c.Nodes[2].PauseUntil(p.Now().Add(pause))
			idle, start := len(db.writeOps), p.Now()
			if err := client.Update(p, key(round), rec); err != nil {
				t.Fatalf("write %d through server 0: %v", round, err)
			}
			if p.Now().Sub(start) < pause {
				t.Fatalf("write %d returned before node 2's pause ended: the lost leg acked it early", round)
			}
			if n := len(db.writeOps); n != max(idle, 1) {
				t.Fatalf("write %d found %d ops on the free list and left %d: its op did not go back when it returned", round, idle, n)
			}
			for j := 0; j < 20; j++ { // server 3 replicates to nodes 4 and 0
				if err := client.Update(p, key(3000+j), rec); err != nil {
					t.Fatalf("write through server 3 after write %d: %v", round, err)
				}
				p.Sleep(10 * time.Millisecond)
			}
		}
		for _, op := range db.writeOps {
			if op.Held() {
				t.Fatal("write op on the free list still held")
			}
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
}
