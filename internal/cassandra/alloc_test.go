package cassandra

import (
	"fmt"
	"reflect"
	"strings"
	"testing"
	"time"

	"cloudbench/internal/cluster"
	"cloudbench/internal/kv"
	"cloudbench/internal/sim"
	"cloudbench/internal/storage"
)

// pointOpAllocs measures the steady-state heap allocations of one client
// operation on an idle 15-node RF 3 deployment holding flushed 10-field
// records — each rewritten in part since the flush, when rewritten is set, so
// that every replica's copy is a memtable row over a table's — after a
// warm-up that fills the op, leg, process and event pools.
func pointOpAllocs(t *testing.T, chance float64, cl kv.ConsistencyLevel, rewritten bool, op func(p *sim.Proc, c *Client, key kv.Key) error) float64 {
	t.Helper()
	k := sim.NewKernel(7)
	db, base := testDB(k, 15, 3, func(c *Config) { c.ReadRepairChance = chance })
	client := base.WithConsistency(cl, cl)
	const records = 64
	keys := make([]kv.Key, records) // made up front: the op is all that is measured
	for i := range keys {
		keys[i] = key(i)
	}
	var allocs float64
	k.Spawn("client", func(p *sim.Proc) {
		for _, key := range keys {
			rec := kv.Record{}
			for _, f := range []string{"f0", "f1", "f2", "f3", "f4", "f5", "f6", "f7", "f8", "f9"} {
				rec[f] = kv.SizedValue(100)
			}
			if err := base.WithConsistency(kv.All, kv.All).Insert(p, key, rec); err != nil {
				t.Error(err)
				return
			}
		}
		db.FlushAll()
		p.Sleep(2 * time.Second)
		for i := 0; rewritten && i < records; i++ {
			if err := base.WithConsistency(kv.All, kv.All).Update(p, keys[i], kv.Record{"f3": kv.SizedValue(7)}); err != nil {
				t.Error(err)
				return
			}
		}
		i := 0
		run := func() {
			if err := op(p, client, keys[i%records]); err != nil {
				t.Error(err)
			}
			i++
			p.Sleep(50 * time.Millisecond) // every leg and repair of the op has finished
		}
		for range 4 * records {
			run()
		}
		allocs = testing.AllocsPerRun(4*records, run)
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	return allocs
}

// TestPointOpAllocs fences what a Cassandra point operation costs the host
// in the steady state: nothing. (The issue that introduced the pooled ops
// allowed 10, 14 and 8; their parent measured 17, 37 and 17.) A read fills
// the record its client keeps and an update of a key the memtable holds
// rewrites its cells in place; coordinator bookkeeping is pooled, and so are
// the rows a read takes out of the active memtable: a key rewritten since its
// flush, which every replica has to snapshot and merge, reads for what a
// flushed one does, because the copies land in scratch rows the read's
// pooled op keeps.
func TestPointOpAllocs(t *testing.T) {
	read := func(p *sim.Proc, c *Client, key kv.Key) error {
		rec, err := c.Read(p, key, nil)
		if len(rec) != 10 {
			t.Errorf("read %d fields of %s, want 10", len(rec), key)
		}
		return err
	}
	f0 := kv.Record{"f0": kv.SizedValue(100)}
	update := func(p *sim.Proc, c *Client, key kv.Key) error { return c.Update(p, key, f0) }
	readPlain := pointOpAllocs(t, 0, kv.One, false, read)
	readRepair := pointOpAllocs(t, 1.0, kv.One, false, read)
	rewrittenPlain := pointOpAllocs(t, 0, kv.One, true, read)
	rewrittenRepair := pointOpAllocs(t, 1.0, kv.One, true, read)
	updateOne := pointOpAllocs(t, 1.0, kv.One, false, update)
	updateQuorum := pointOpAllocs(t, 1.0, kv.Quorum, false, update)
	t.Logf("allocs/op: read ONE %.2f, with background repair %.2f; of a key rewritten since the flush %.2f and %.2f; update ONE %.2f, update QUORUM %.2f",
		readPlain, readRepair, rewrittenPlain, rewrittenRepair, updateOne, updateQuorum)
	for _, c := range []struct {
		what       string
		got, bound float64
	}{
		{"ONE read, read repair off", readPlain, 0},
		{"ONE read, read repair on, replicas in sync", readRepair, 0},
		{"ONE read of a key rewritten since the flush, read repair off", rewrittenPlain, 0},
		{"ONE read of a key rewritten since the flush, read repair on", rewrittenRepair, 0},
		{"ONE update", updateOne, 0},
	} {
		if c.got > c.bound {
			t.Errorf("%s: %.2f allocs/op, want at most %v", c.what, c.got, c.bound)
		}
	}
	if updateQuorum != updateOne {
		t.Errorf("QUORUM update allocates %.2f/op, ONE %.2f: the level should only change who is waited for", updateQuorum, updateOne)
	}
}

// TestReplicatedInsertAllocs fences what an RF 3 write of a key no replica
// holds costs: one set of cells, built by the first replica to apply the
// write and shared by the other two. Each replica's memtable node and row
// come from its memtable's arena, nothing of their own. (When each replica
// built its own cells, the insert cost 9; when each node and row were heap
// objects of their own, 7.)
func TestReplicatedInsertAllocs(t *testing.T) {
	fresh := make([]kv.Key, 1024) // more than the harness's runs
	for i := range fresh {
		fresh[i] = key(1000 + i)
	}
	rec := kv.Record{}
	for _, f := range []string{"f0", "f1", "f2", "f3", "f4", "f5", "f6", "f7", "f8", "f9"} {
		rec[f] = kv.SizedValue(100)
	}
	n := 0
	insert := func(p *sim.Proc, c *Client, _ kv.Key) error {
		n++
		return c.Insert(p, fresh[n-1], rec)
	}
	allocs := pointOpAllocs(t, 0, kv.All, false, insert)
	t.Logf("allocs/op: ALL insert of a fresh key %.2f", allocs)
	if allocs > 1 {
		t.Errorf("ALL insert of a fresh key: %.2f allocs/op, want at most 1", allocs)
	}
}

// TestTimedOutReadHoldsItsOpUntilLegsFinish: rows flushed to a degraded
// disk (no block cache, 300 ms seeks) take far longer to fetch than the
// coordinator's 20 ms timeout, so every read of one returns ErrTimeout while
// its two legs are still queued at the replicas' disks. Until the last of
// them has answered, the read's op must stay off the free list: the reads
// of memtable-resident rows issued in the meantime would otherwise run on
// it and be answered by the late legs — with another key's row. The
// memtable-resident keys sort before every flushed key, so no SSTable
// charges them a block read, whatever its Bloom filter answers: the
// fixture holds at every kernel seed, and the test runs thirty. CI runs
// it under -race -count=20.
func TestTimedOutReadHoldsItsOpUntilLegsFinish(t *testing.T) {
	for seed := int64(1); seed <= 30; seed++ {
		t.Run(fmt.Sprint("seed", seed), func(t *testing.T) { timedOutReadHoldsItsOp(t, seed) })
	}
}

func timedOutReadHoldsItsOp(t *testing.T, seed int64) {
	k := sim.NewKernel(seed)
	ccfg := cluster.DefaultConfig()
	ccfg.Nodes = 6
	ccfg.Disk.SeekTime = 300 * time.Millisecond
	c := cluster.New(k, ccfg)
	cfg := DefaultConfig()
	cfg.Timeout = 20 * time.Millisecond
	cfg.ReadRepairChance = 0
	cfg.Engine.CacheBytes = 0
	db := New(k, cfg, c.Nodes[:5])
	all := db.NewClient(c.Nodes[5]).WithConsistency(kv.All, kv.All)
	quorum := all.WithConsistency(kv.Quorum, kv.Quorum)
	const slow, fast = 12, 8
	k.Spawn("client", func(p *sim.Proc) {
		insert := func(from, to int) {
			for i := from; i < to; i++ {
				if err := all.Insert(p, key(i), kv.Record{"v": kv.SizedValue(100 + i)}); err != nil {
					t.Fatalf("insert %d: %v", i, err)
				}
			}
		}
		insert(fast, fast+slow)
		db.FlushAll()
		p.Sleep(30 * time.Second)
		insert(0, fast)
		for i := fast; i < fast+slow; i++ {
			idle := len(db.readOps)
			if _, err := quorum.Read(p, key(i), nil); err != kv.ErrTimeout {
				t.Fatalf("read of flushed key %d: err = %v, want timeout", i, err)
			}
			if n := len(db.readOps); n != max(idle-1, 0) {
				t.Fatalf("timed-out read %d found %d ops on the free list and left %d: its op went back while its legs are in flight", i, idle, n)
			}
			// 400 ms of reads that succeed at once, while the legs above are
			// still at the disks.
			for j := 0; j < 40; j++ {
				want := (i + j) % fast
				rec, err := quorum.Read(p, key(want), nil)
				if err != nil || rec["v"].Bytes() != 100+want {
					t.Fatalf("read of key %d during read %d's late legs: rec = %v, err = %v", want, i, rec, err)
				}
				p.Sleep(10 * time.Millisecond)
			}
		}
		p.Sleep(30 * time.Second)
		for _, op := range db.readOps {
			if op.Held() {
				t.Fatal("op on the free list still held")
			}
		}
		if n := len(db.readOps); n < 2 {
			t.Fatalf("%d read ops ever made; a timed-out read and the next read must not have shared one", n)
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if db.CoordinatorTimeouts != slow {
		t.Fatalf("timeouts = %d, want %d", db.CoordinatorTimeouts, slow)
	}
}

// TestRecycledReadOpsNeverMixRows is the same hazard seen from the rows: a
// read's rows now live in scratch rows its pooled op and legs keep, so an op
// recycled early, or a scratch reused while somebody still reads it, would
// answer one key with another key's cells. ONE reads of flushed keys time out
// with their leg still at a degraded disk; in between, ONE reads with
// background repair on — of memtable-resident keys, which every replica has
// to snapshot — run on whatever ops come off the free list, while the keys
// are rewritten and, every fourth read, the main replica alone is given a
// newer cell, so that the background repair reconciles a real difference and
// writes it back. Every record returned is checked against a model of the
// writes. CI runs this under -race -count=20.
func TestRecycledReadOpsNeverMixRows(t *testing.T) {
	k := sim.NewKernel(11)
	ccfg := cluster.DefaultConfig()
	ccfg.Nodes = 6
	ccfg.Disk.SeekTime = 300 * time.Millisecond
	c := cluster.New(k, ccfg)
	cfg := DefaultConfig()
	cfg.Timeout = 20 * time.Millisecond
	cfg.ReadRepairChance = 1.0
	cfg.Engine.CacheBytes = 0
	db := New(k, cfg, c.Nodes[:5])
	all := db.NewClient(c.Nodes[5]).WithConsistency(kv.All, kv.All)
	one := all.WithConsistency(kv.One, kv.One)
	const slow, fast = 8, 6
	model := map[int]kv.Record{}
	k.Spawn("client", func(p *sim.Proc) {
		write := func(i int, rec kv.Record) {
			if err := all.Update(p, key(i), rec); err != nil {
				t.Fatalf("write %d: %v", i, err)
			}
			model[i] = rec.Clone().MergeOlder(model[i])
		}
		for i := 0; i < slow; i++ {
			write(i, kv.Record{"f0": kv.SizedValue(1000 * i)})
		}
		db.FlushAll()
		p.Sleep(30 * time.Second)
		for i := slow; i < slow+fast; i++ {
			// Widths differ, so a recycled scratch has held a wider row.
			rec := kv.Record{}
			for f := 0; f <= i-slow; f++ {
				rec[string(rune('a'+f))] = kv.SizedValue(1000*i + f)
			}
			write(i, rec)
		}
		reads := 0
		for round := 0; round < slow; round++ {
			if rec, err := one.Read(p, key(round), nil); err != kv.ErrTimeout {
				t.Fatalf("read of flushed key %d: rec = %v, err = %v, want timeout", round, rec, err)
			}
			// 400 ms of reads that succeed at once, while the leg above is
			// still at the disk and when it lands.
			for j := 0; j < 40; j++ {
				i := slow + (round+j)%fast
				reads++
				switch j % 4 {
				case 1:
					write(i, kv.Record{"a": kv.SizedValue(1000*i + 100 + reads)})
				case 3:
					rec := kv.Record{"z": kv.SizedValue(1000*i + 500 + reads)}
					db.ReplicasFor(key(i))[0].Engine.Apply(p, key(i), rec, db.Version())
					model[i] = rec.Clone().MergeOlder(model[i])
				}
				rec, err := one.Read(p, key(i), nil)
				if err != nil || !reflect.DeepEqual(rec, model[i]) {
					t.Fatalf("read %d, of key %d during read %d's late leg: rec = %v, err = %v, want %v", reads, i, round, rec, err, model[i])
				}
				p.Sleep(10 * time.Millisecond)
			}
		}
		p.Sleep(30 * time.Second)
		for _, op := range db.readOps {
			rows := []*storage.Row{&op.blockingRow, &op.backgroundRow}
			for _, l := range op.Built() {
				rows = append(rows, &l.Row)
			}
			for _, r := range rows {
				if op.Held() || r.Version() != 0 || r.Bytes() != storage.NewRow().Bytes() {
					t.Fatalf("op on the free list, held %t, with a scratch row still holding %v @%d", op.Held(), r.Record(), r.Version())
				}
			}
			// The record its repairs wrote is the op's too, refilled by the
			// next repair: the replicas checked below keep the Write's
			// cells, which the op dropped.
			if op.repair.Rec != nil || op.repair.Ver != 0 || len(op.repairRec) != 0 {
				t.Fatalf("op on the free list still holding the repair record %v", op.repairRec)
			}
		}
		// The background repairs did reconcile and write back: every
		// replica now holds what the main one was given.
		for i := slow; i < slow+fast; i++ {
			for _, rep := range db.ReplicasFor(key(i)) {
				if rec := rep.Engine.Get(p, key(i)).Record(); !reflect.DeepEqual(rec, model[i]) {
					t.Errorf("key %d on node %d after repair: %v, want %v", i, rep.Node.ID, rec, model[i])
				}
			}
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if db.CoordinatorTimeouts != slow || db.AsyncRepairs == 0 || db.RepairWrites == 0 {
		t.Fatalf("timeouts = %d (want %d), background repairs = %d, repair writes = %d", db.CoordinatorTimeouts, slow, db.AsyncRepairs, db.RepairWrites)
	}
}

// TestRecycledWriteOpsKeepTheirCells: every leg of a write applies the Write
// its pooled op embeds, and a hint keeps its own copy of it. A ONE write of
// one key stores a hint for a down replica; the writes of other keys that
// follow, each of its own record, recycle that op again and again, and the
// live replicas' memtables adopt each one's cells. Once the replica is back
// and the hints have replayed, every replica of every key must hold that
// key's fields at its version. CI runs this under -race -count=20.
func TestRecycledWriteOpsKeepTheirCells(t *testing.T) {
	k := sim.NewKernel(13)
	db, base := testDB(k, 4, 3, nil)
	one := base.WithConsistency(kv.One, kv.One)
	down := db.ReplicasFor(key(0))[2]
	const keys = 64
	recs := make([]kv.Record, keys)
	for i := range recs {
		recs[i] = kv.Record{}
		for f := 0; f <= i%5; f++ {
			recs[i][fmt.Sprintf("f%d", f+i%3)] = kv.SizedValue(100*i + f)
		}
	}
	k.Spawn("client", func(p *sim.Proc) {
		down.Node.Fail()
		for i, rec := range recs {
			if err := one.Insert(p, key(i), rec); err != nil {
				t.Fatalf("insert %d: %v", i, err)
			}
			if i == 0 && db.HintsStored != 1 {
				t.Fatalf("hints stored = %d, want 1", db.HintsStored)
			}
		}
		p.Sleep(time.Second) // every leg has let its op go
		if n := len(db.writeOps); n == 0 || n > keys/8 {
			t.Fatalf("%d write ops for %d writes: the pool did not recycle", n, keys)
		}
		down.Node.Recover()
		p.Sleep(2 * db.cfg.HintReplayInterval)
		if db.PendingHints() != 0 {
			t.Fatalf("%d hints still pending", db.PendingHints())
		}
		for i, want := range recs {
			reps := db.ReplicasFor(key(i))
			var ver kv.Version // the write's: every replica's, the newest one's at least
			for _, rep := range reps {
				if row := rep.Engine.Get(p, key(i)); row != nil {
					ver = max(ver, row.Version())
				}
			}
			for _, rep := range reps {
				if row := rep.Engine.Get(p, key(i)); row == nil || row.Version() != ver || !reflect.DeepEqual(row.Record(), want) {
					t.Errorf("key %d on %s: %v, want %v @%d", i, rep.Node.Name, row, want, ver)
				}
			}
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
}

// TestSharedClientReadsReturnOwnKeys: two processes read through one client
// (megascale's serving client is shared like this), each its own keys, whose
// field names no other key has. The client fills the one record it keeps only
// once a read's response has arrived, and returns it without yielding again,
// so however the two reads interleave — across blocking repairs, background
// repairs and reads that time out with their legs still at a degraded disk —
// each process finds exactly its own key's fields in what Read returned. CI
// runs this under -race -count=20.
func TestSharedClientReadsReturnOwnKeys(t *testing.T) {
	k := sim.NewKernel(11)
	ccfg := cluster.DefaultConfig()
	ccfg.Nodes = 6
	ccfg.Disk.SeekTime = 300 * time.Millisecond
	c := cluster.New(k, ccfg)
	cfg := DefaultConfig()
	cfg.Timeout = 20 * time.Millisecond
	cfg.ReadRepairChance = 1.0
	cfg.Engine.CacheBytes = 0
	db := New(k, cfg, c.Nodes[:5])
	all := db.NewClient(c.Nodes[5]).WithConsistency(kv.All, kv.All)
	shared := all.WithConsistency(kv.Quorum, kv.Quorum)
	const slow, fast, readers = 4, 8, 2
	model := map[int]kv.Record{}
	overlapped := 0
	k.Spawn("setup", func(p *sim.Proc) {
		write := func(p *sim.Proc, i int, rec kv.Record) {
			if err := all.Update(p, key(i), rec); err != nil {
				t.Fatalf("write %d: %v", i, err)
			}
			model[i] = rec.Clone().MergeOlder(model[i])
		}
		for i := 0; i < slow; i++ {
			write(p, i, kv.Record{"slow": kv.SizedValue(1000 * i)})
		}
		db.FlushAll()
		p.Sleep(30 * time.Second)
		for i := slow; i < slow+fast; i++ {
			rec := kv.Record{}
			for f := 0; f <= i-slow; f++ {
				rec[fmt.Sprintf("k%d-f%d", i, f)] = kv.SizedValue(1000*i + f)
			}
			write(p, i, rec)
		}
		inRead := 0
		for r := 0; r < readers; r++ {
			k.Spawn("reader", func(p *sim.Proc) {
				read := func(i int) (kv.Record, error) {
					if inRead++; inRead > 1 {
						overlapped++
					}
					rec, err := shared.Read(p, key(i), nil)
					inRead--
					return rec, err
				}
				for n := 0; n < 200; n++ {
					i := slow + r + readers*(n%(fast/readers)) // this reader's keys
					switch n % 8 {
					case 2:
						write(p, i, kv.Record{fmt.Sprintf("k%d-f0", i): kv.SizedValue(1000*i + 100 + n)})
					case 5:
						// The main replica alone gets a newer cell: the digests
						// differ and the read repairs before it answers.
						rec := kv.Record{fmt.Sprintf("k%d-z", i): kv.SizedValue(1000*i + 500 + n)}
						db.ReplicasFor(key(i))[0].Engine.Apply(p, key(i), rec, db.Version())
						model[i] = rec.Clone().MergeOlder(model[i])
					case 7:
						if rec, err := read((n / 8) % slow); err != kv.ErrTimeout {
							t.Fatalf("reader %d: read of a flushed key: rec = %v, err = %v, want timeout", r, rec, err)
						}
					}
					if rec, err := read(i); err != nil || !reflect.DeepEqual(rec, model[i]) {
						t.Fatalf("reader %d, read %d of key %d: rec = %v, err = %v, want %v", r, n, i, rec, err, model[i])
					}
					p.Sleep(time.Duration(3+4*r) * time.Millisecond)
				}
			})
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if overlapped == 0 || db.BlockingRepairs == 0 || db.AsyncRepairs == 0 || db.CoordinatorTimeouts == 0 {
		t.Fatalf("reads that overlapped = %d, blocking repairs = %d, background repairs = %d, timeouts = %d: the hazard was not exercised",
			overlapped, db.BlockingRepairs, db.AsyncRepairs, db.CoordinatorTimeouts)
	}
}

// TestClientScanSharedByTwoProcessesPanicsByName: a scan's result is merged
// into the slice the client keeps before its response travels, so a second
// process scanning through the same client meanwhile would overwrite what the
// first is about to return; the client refuses by name instead.
func TestClientScanSharedByTwoProcessesPanicsByName(t *testing.T) {
	k := sim.NewKernel(7)
	_, client := testDB(k, 6, 3, nil)
	for i := 0; i < 2; i++ {
		k.Spawn("scanner", func(p *sim.Proc) { client.Scan(p, key(i), 5, nil) })
	}
	defer func() {
		if r, _ := recover().(string); !strings.Contains(r, "cassandra: Client.Scan") || !strings.Contains(r, "one process at a time") {
			t.Errorf("two processes on one client: recovered %q, want the client's own panic", r)
		}
	}()
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	t.Error("two concurrent scans through one client both returned")
}
