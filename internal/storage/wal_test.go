package storage

import (
	"testing"
	"time"

	"cloudbench/internal/cluster"
	"cloudbench/internal/sim"
)

func TestWALAppendAsyncDoesNotBlock(t *testing.T) {
	k := sim.NewKernel(1)
	d := cluster.NewDisk(k, "wal", cluster.DefaultDiskConfig())
	w := NewWAL(k, DiskLog{Disk: d})
	var elapsed time.Duration
	k.Spawn("writer", func(p *sim.Proc) {
		start := p.Now()
		for i := 0; i < 100; i++ {
			w.AppendAsync(1000)
		}
		elapsed = p.Now().Sub(start)
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if elapsed != 0 {
		t.Fatalf("async appends blocked the caller for %v", elapsed)
	}
	if w.BytesLogged != 100_000 {
		t.Fatalf("bytes logged = %d, want all flushed in background", w.BytesLogged)
	}
	if w.Batches >= 100 {
		t.Fatalf("batches = %d, want coalescing", w.Batches)
	}
}

func TestWALMixedSyncAsync(t *testing.T) {
	k := sim.NewKernel(1)
	d := cluster.NewDisk(k, "wal", cluster.DefaultDiskConfig())
	w := NewWAL(k, DiskLog{Disk: d})
	k.Spawn("writer", func(p *sim.Proc) {
		w.AppendAsync(500)
		w.Append(p, 500) // must wait for its batch, which includes the async bytes
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if w.BytesLogged != 1000 || w.Appends != 2 {
		t.Fatalf("logged=%d appends=%d", w.BytesLogged, w.Appends)
	}
}

func TestEngineAsyncWALStillChargesDisk(t *testing.T) {
	k := sim.NewKernel(1)
	d := cluster.NewDisk(k, "d", cluster.DefaultDiskConfig())
	cfg := DefaultConfig()
	cfg.SyncWAL = false
	e := NewEngine(k, cfg, LocalIO{Disk: d}, DiskLog{Disk: d}, 1)
	var writeLatency time.Duration
	k.Spawn("client", func(p *sim.Proc) {
		start := p.Now()
		for i := 0; i < 50; i++ {
			e.Apply(p, "k", nil, 1)
		}
		writeLatency = p.Now().Sub(start)
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if writeLatency != 0 {
		t.Fatalf("async-WAL writes took %v of caller time", writeLatency)
	}
	if d.WriteOps == 0 {
		t.Fatal("commit log never reached the disk")
	}
}

func TestCacheDropTableOnDeleteEviction(t *testing.T) {
	// Warmed blocks of compacted-away tables must not crowd out live
	// blocks forever: the LRU ages them, and the live table's blocks can
	// be re-warmed without disk I/O via WarmCache.
	c := NewBlockCache(1 << 10)
	for b := 0; b < 8; b++ {
		c.Touch(1, b, 100)
	}
	for b := 0; b < 8; b++ {
		c.Touch(2, b, 100) // evicts table 1's oldest blocks
	}
	live := 0
	for b := 0; b < 8; b++ {
		if c.Contains(2, b) {
			live++
		}
	}
	if live < 6 {
		t.Fatalf("live blocks cached = %d, want most of table 2", live)
	}
}

// TestWALFlusherStartZeroAlloc: a WAL that went idle starts its next
// flusher — the common case under Cassandra's periodic commit log, where
// every batch finds the log quiet again — without allocating: the loop is
// bound once and the process comes from the kernel's pool.
func TestWALFlusherStartZeroAlloc(t *testing.T) {
	k := sim.NewKernel(1)
	d := cluster.NewDisk(k, "wal", cluster.DefaultDiskConfig())
	w := NewWAL(k, DiskLog{Disk: d})
	var allocs float64
	k.Spawn("writer", func(p *sim.Proc) {
		round := func() {
			w.AppendAsync(1000)
			p.Sleep(time.Second) // the batch lands and the flusher exits
		}
		round() // warm the process pool
		batches := w.Batches
		allocs = testing.AllocsPerRun(200, round)
		if got := w.Batches - batches; got != 201 {
			t.Errorf("%d flusher starts over 201 rounds, want one each", got)
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if allocs != 0 {
		t.Errorf("starting a flusher allocates %v times, want 0", allocs)
	}
}

// TestWALSyncWaitersReuseBuffers: the waiter lists of successive sync
// batches trade places instead of being regrown per batch.
func TestWALSyncWaitersReuseBuffers(t *testing.T) {
	k := sim.NewKernel(1)
	d := cluster.NewDisk(k, "wal", cluster.DefaultDiskConfig())
	w := NewWAL(k, DiskLog{Disk: d})
	const writers, rounds = 8, 50
	for i := 0; i < writers; i++ {
		k.Spawn("writer", func(p *sim.Proc) {
			for j := 0; j < rounds; j++ {
				w.Append(p, 100)
			}
		})
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if w.Appends != writers*rounds || w.BytesLogged != writers*rounds*100 {
		t.Fatalf("appends=%d logged=%d", w.Appends, w.BytesLogged)
	}
	if len(w.waiters) != 0 || cap(w.waiters) == 0 || cap(w.spare) == 0 {
		t.Fatalf("waiter buffers: len %d cap %d, spare cap %d; want both kept and empty", len(w.waiters), cap(w.waiters), cap(w.spare))
	}
	for _, f := range w.spare[:cap(w.spare)] {
		if f != nil {
			t.Fatal("a released batch still references its waiters' futures")
		}
	}
}
