package objstore

import (
	"fmt"
	"testing"
	"time"

	"cloudbench/internal/cluster"
	"cloudbench/internal/kv"
	"cloudbench/internal/sim"
	"cloudbench/internal/storage"
)

// TestReadAllocs is cassandra's TestPointOpAllocs for the object store: in
// the steady state a Read allocates nothing at either read mode, of a flushed
// key or of one rewritten since its flush, which every replica has to copy
// into its leg's scratch row. The read runs on a pooled op, and the client
// fills the record it keeps.
func TestReadAllocs(t *testing.T) {
	for _, mode := range []ReadMode{ReadOne, ReadQuorumFresh} {
		for _, rewritten := range []bool{false, true} {
			k := sim.NewKernel(7)
			db, base, _ := testDB(k, 5, 3, func(cfg *Config) { cfg.ReplicatorInterval = 0 })
			c := withReadMode(base, mode)
			const records = 64
			keys := make([]kv.Key, records) // made up front: the read is all that is measured
			for i := range keys {
				keys[i] = key(i)
			}
			var allocs float64
			k.Spawn("client", func(p *sim.Proc) {
				rec := kv.Record{}
				for _, f := range []string{"f0", "f1", "f2", "f3", "f4", "f5", "f6", "f7", "f8", "f9"} {
					rec[f] = kv.SizedValue(100)
				}
				for _, key := range keys {
					if err := c.Insert(p, key, rec); err != nil {
						t.Error(err)
						return
					}
				}
				p.Sleep(2 * time.Second) // the async jobs deliver
				db.FlushAll()
				p.Sleep(2 * time.Second)
				f3 := kv.Record{"f3": kv.SizedValue(7)}
				for i := 0; rewritten && i < records; i++ {
					if err := c.Update(p, keys[i], f3); err != nil {
						t.Error(err)
						return
					}
				}
				p.Sleep(2 * time.Second)
				i := 0
				read := func() {
					if got, err := c.Read(p, keys[i%records], nil); err != nil || len(got) != 10 || rewritten != (got["f3"].Bytes() == 7) {
						t.Errorf("read %d: %v, err = %v", i, got, err)
					}
					i++
				}
				for range 2 * records {
					read()
				}
				allocs = testing.AllocsPerRun(4*records, read)
			})
			if err := k.Run(); err != nil {
				t.Fatal(err)
			}
			if allocs != 0 {
				t.Errorf("%v read of a key rewritten since its flush %t: %.2f allocs/op, want 0", mode, rewritten, allocs)
			}
		}
	}
}

// TestTimedOutReadHoldsItsOpUntilLegsFinish is cassandra's test of that name
// for the object store: rows flushed to a degraded disk (no block cache,
// 300 ms seeks) take far longer to fetch than the client's 20 ms timeout, so
// every quorum read of one returns ErrTimeout while its two legs are still
// at the servers' disks. Until the last of them has answered, the read's op
// must stay off the free list: the reads of memtable-resident rows issued in
// the meantime would otherwise run on it and be answered by the late legs —
// with another key's row. The memtable-resident rows' keys sort before every
// flushed key, so no SSTable charges them a block read, whatever its Bloom
// filter answers: the fixture holds at every kernel seed, and the test runs
// thirty. CI runs it under -race -count=20.
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
	cfg.ReplicatorInterval = 0
	cfg.Engine.CacheBytes = 0
	db := New(k, cfg, c.Nodes[:5])
	quorum := withReadMode(db.NewClient(c.Nodes[5]), ReadQuorumFresh)
	const slow, fast = 12, 8
	timeouts := 0
	k.Spawn("client", func(p *sim.Proc) {
		insert := func(from, to int) {
			for i := from; i < to; i++ {
				if err := quorum.Insert(p, key(i), kv.Record{"v": kv.SizedValue(100 + i)}); err != nil {
					t.Fatalf("insert %d: %v", i, err)
				}
			}
			p.Sleep(30 * time.Second) // the async jobs deliver
		}
		insert(fast, fast+slow)
		db.FlushAll()
		insert(0, fast)
		for i := fast; i < fast+slow; i++ {
			idle := len(db.readOps)
			if _, err := quorum.Read(p, key(i), nil); err != kv.ErrTimeout {
				t.Fatalf("read of flushed key %d: err = %v, want timeout", i, err)
			}
			timeouts++
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
			rows := []*storage.Row{&op.row}
			for _, l := range op.Built() {
				rows = append(rows, &l.Row)
			}
			for _, r := range rows {
				if op.Held() || r.Version() != 0 || r.Bytes() != storage.NewRow().Bytes() {
					t.Fatalf("read op on the free list, held %t, with a scratch row still holding %v @%d", op.Held(), r.Record(), r.Version())
				}
			}
		}
		if n := len(db.readOps); n < 2 {
			t.Fatalf("%d read ops ever made; a timed-out read and the next read must not have shared one", n)
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if timeouts != slow {
		t.Fatalf("timeouts = %d, want %d", timeouts, slow)
	}
}
