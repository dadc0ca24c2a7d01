package storage

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"cloudbench/internal/cluster"
	"cloudbench/internal/kv"
	"cloudbench/internal/sim"
)

// verOf returns the version of row's cell under field, 0 if absent.
func verOf(row *Row, field string) kv.Version {
	c, _ := row.Cell(field)
	return c.Ver
}

func TestSkiplistInsertAndGet(t *testing.T) {
	s := newSkiplist(sim.NewSource(1))
	keys := []kv.Key{"m", "a", "z", "b", "q"}
	for i, k := range keys {
		row := s.GetOrCreate(k)
		row.Apply(kv.Record{"f": kv.SizedValue(i + 1)}, kv.Version(i+1))
	}
	if s.Len() != len(keys) {
		t.Fatalf("len = %d", s.Len())
	}
	for i, k := range keys {
		row := s.Get(k)
		if row == nil || verOf(row, "f") != kv.Version(i+1) {
			t.Fatalf("get %q = %+v", k, row)
		}
	}
	if s.Get("nope") != nil {
		t.Fatal("missing key should be nil")
	}
}

func TestSkiplistGetOrCreateIsIdempotent(t *testing.T) {
	s := newSkiplist(sim.NewSource(1))
	a := s.GetOrCreate("k")
	b := s.GetOrCreate("k")
	if a != b || s.Len() != 1 {
		t.Fatal("GetOrCreate created a duplicate")
	}
}

func TestSkiplistIterationSorted(t *testing.T) {
	f := func(raw []uint16) bool {
		s := newSkiplist(sim.NewSource(2))
		seen := map[kv.Key]bool{}
		for _, r := range raw {
			k := kv.Key(fmt.Sprintf("key%05d", r))
			s.GetOrCreate(k)
			seen[k] = true
		}
		var got []kv.Key
		for c := s.seek(""); c.valid(); c.next() {
			got = append(got, c.key())
		}
		if len(got) != len(seen) {
			return false
		}
		return sort.SliceIsSorted(got, func(i, j int) bool { return got[i] < got[j] })
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestSkiplistSeek(t *testing.T) {
	s := newSkiplist(sim.NewSource(1))
	for _, k := range []kv.Key{"b", "d", "f"} {
		s.GetOrCreate(k)
	}
	c := s.seek("c")
	if !c.valid() || c.key() != "d" {
		t.Fatalf("seek(c) = %v", c.key())
	}
	if c = s.seek("g"); c.valid() {
		t.Fatal("seek past end should be invalid")
	}
}

func TestBloomNoFalseNegatives(t *testing.T) {
	b := NewBloom(1000)
	for i := 0; i < 1000; i++ {
		b.Add(kv.Key(fmt.Sprintf("user%d", i)))
	}
	for i := 0; i < 1000; i++ {
		if !b.MayContain(kv.Key(fmt.Sprintf("user%d", i))) {
			t.Fatalf("false negative for user%d", i)
		}
	}
}

func TestBloomFalsePositiveRateReasonable(t *testing.T) {
	b := NewBloom(10000)
	for i := 0; i < 10000; i++ {
		b.Add(kv.Key(fmt.Sprintf("user%d", i)))
	}
	fp := 0
	probes := 10000
	for i := 0; i < probes; i++ {
		if b.MayContain(kv.Key(fmt.Sprintf("absent%d", i))) {
			fp++
		}
	}
	if rate := float64(fp) / float64(probes); rate > 0.05 {
		t.Fatalf("false positive rate = %.3f, want < 0.05", rate)
	}
}

func TestRowApplyLWWPerCell(t *testing.T) {
	r := NewRow()
	r.Apply(kv.Record{"a": kv.SizedValue(1), "b": kv.SizedValue(1)}, 10)
	r.Apply(kv.Record{"a": kv.SizedValue(2)}, 20)
	r.Apply(kv.Record{"b": kv.SizedValue(3)}, 5) // stale, must lose
	if verOf(r, "a") != 20 || verOf(r, "b") != 10 {
		t.Fatalf("cells = %+v", r)
	}
}

func TestRowTombstoneShadowsOlderCells(t *testing.T) {
	r := NewRow()
	r.Apply(kv.Record{"a": kv.SizedValue(1)}, 10)
	r.Delete(15)
	if r.Live() {
		t.Fatal("row should be dead")
	}
	if r.Record() != nil {
		t.Fatal("record of dead row should be nil")
	}
	r.Apply(kv.Record{"a": kv.SizedValue(2)}, 20)
	if !r.Live() || r.Record()["a"].Bytes() != 2 {
		t.Fatal("re-insert after delete should be visible")
	}
	if r.Version() != 20 {
		t.Fatalf("version = %d", r.Version())
	}
}

func TestRowMergeFromCommutative(t *testing.T) {
	mk := func() (*Row, *Row) {
		a, b := NewRow(), NewRow()
		a.Apply(kv.Record{"x": kv.SizedValue(1), "y": kv.SizedValue(1)}, 10)
		b.Apply(kv.Record{"x": kv.SizedValue(2)}, 20)
		b.Delete(5)
		return a, b
	}
	a1, b1 := mk()
	a1.MergeFrom(b1)
	a2, b2 := mk()
	b2.MergeFrom(a2)
	if a1.Version() != b2.Version() || verOf(a1, "x") != verOf(b2, "x") ||
		verOf(a1, "y") != verOf(b2, "y") || a1.Tomb != b2.Tomb {
		t.Fatalf("merge not commutative: %+v vs %+v", a1, b2)
	}
}

func TestBuildTableAndGet(t *testing.T) {
	var entries []TableEntry
	for i := 0; i < 500; i++ {
		r := NewRow()
		r.Apply(kv.Record{"f": kv.SizedValue(100)}, kv.Version(i+1))
		entries = append(entries, TableEntry{Key: kv.Key(fmt.Sprintf("user%06d", i)), Row: *r})
	}
	tbl := BuildTable(1, entries, 4<<10)
	if len(tbl.entries) != 500 || len(tbl.blockStart) < 2 {
		t.Fatalf("len=%d blocks=%d", len(tbl.entries), len(tbl.blockStart))
	}

	k := sim.NewKernel(1)
	d := cluster.NewDisk(k, "d", cluster.DefaultDiskConfig())
	io := LocalIO{Disk: d}
	cache := NewBlockCache(1 << 20)
	k.Spawn("reader", func(p *sim.Proc) {
		for i := 0; i < 500; i += 37 {
			key := kv.Key(fmt.Sprintf("user%06d", i))
			row := tbl.Get(p, io, cache, key)
			if row == nil || row.Version() != kv.Version(i+1) {
				t.Errorf("get %s = %+v", key, row)
			}
		}
		if tbl.Get(p, io, cache, "absent") != nil {
			t.Error("absent key found")
		}
		if tbl.Get(p, io, cache, "aaa") != nil {
			t.Error("key before table found")
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if d.ReadOps == 0 {
		t.Fatal("no disk reads charged")
	}
}

func TestTableIterChargesPerBlock(t *testing.T) {
	var entries []TableEntry
	for i := 0; i < 200; i++ {
		r := NewRow()
		r.Apply(kv.Record{"f": kv.SizedValue(100)}, 1)
		entries = append(entries, TableEntry{Key: kv.Key(fmt.Sprintf("user%06d", i)), Row: *r})
	}
	tbl := BuildTable(1, entries, 2<<10) // ~16 rows per block
	k := sim.NewKernel(1)
	d := cluster.NewDisk(k, "d", cluster.DefaultDiskConfig())
	io := LocalIO{Disk: d}
	k.Spawn("scanner", func(p *sim.Proc) {
		n := 0
		for c := tbl.seek(p, io, nil, "user000050"); c.valid() && n < 40; c.next() {
			n++
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	// 40 rows over ~16-row blocks = 3-4 block reads, far fewer than 40.
	if d.ReadOps < 2 || d.ReadOps > 6 {
		t.Fatalf("read ops = %d, want 2..6", d.ReadOps)
	}
	// A cursor without a process is how compaction walks a table: the
	// same rows, no block charged.
	before, n := d.ReadOps, 0
	for c := (cursor{t: tbl}); c.valid(); c.next() {
		n++
	}
	if n != 200 || d.ReadOps != before {
		t.Fatalf("free walk: %d rows, %d block reads, want 200 and 0", n, d.ReadOps-before)
	}
}

// cached reports whether c holds the block, without promoting it.
func cached(c *BlockCache, table int64, block int) bool {
	_, ok := c.index[blockID{table, block}]
	return ok
}

func TestBlockCacheLRUEviction(t *testing.T) {
	c := NewBlockCache(100)
	if c.Touch(1, 0, 60) {
		t.Fatal("first touch should miss")
	}
	if !c.Touch(1, 0, 60) {
		t.Fatal("second touch should hit")
	}
	c.Touch(1, 1, 60) // evicts block 0 (over budget)
	if cached(c, 1, 0) {
		t.Fatal("block 0 should be evicted")
	}
	if !cached(c, 1, 1) {
		t.Fatal("block 1 should remain")
	}
	if c.Hits != 1 || c.Misses != 2 {
		t.Fatalf("hits/misses = %d/%d, want 1/2", c.Hits, c.Misses)
	}
}

func TestBlockCacheDisabled(t *testing.T) {
	c := NewBlockCache(0)
	c.Touch(1, 0, 10)
	if c.Touch(1, 0, 10) {
		t.Fatal("disabled cache must always miss")
	}
}

func TestWALGroupCommit(t *testing.T) {
	k := sim.NewKernel(1)
	d := cluster.NewDisk(k, "wal", cluster.DefaultDiskConfig())
	w := NewWAL(k, DiskLog{Disk: d})
	const writers = 20
	for i := 0; i < writers; i++ {
		k.Spawn("writer", func(p *sim.Proc) {
			w.Append(p, 100)
		})
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if w.Appends != writers {
		t.Fatalf("appends = %d", w.Appends)
	}
	if w.Batches >= writers {
		t.Fatalf("batches = %d, want group commit (< %d)", w.Batches, writers)
	}
	if w.BytesLogged != writers*100 {
		t.Fatalf("bytes = %d", w.BytesLogged)
	}
}

func newTestEngine(t *testing.T, k *sim.Kernel, cfg Config) (*Engine, *cluster.Disk) {
	t.Helper()
	d := cluster.NewDisk(k, "d", cluster.DefaultDiskConfig())
	return NewEngine(k, cfg, LocalIO{Disk: d}, DiskLog{Disk: d}, 42), d
}

func TestEngineWriteReadBack(t *testing.T) {
	k := sim.NewKernel(1)
	e, _ := newTestEngine(t, k, DefaultConfig())
	k.Spawn("client", func(p *sim.Proc) {
		e.Apply(p, "user1", kv.Record{"f0": kv.SizedValue(100)}, 1)
		e.Apply(p, "user1", kv.Record{"f1": kv.SizedValue(200)}, 2)
		row := e.Get(p, "user1")
		if row == nil {
			t.Fatal("missing row")
		}
		rec := row.Record()
		if rec["f0"].Bytes() != 100 || rec["f1"].Bytes() != 200 {
			t.Fatalf("rec = %v", rec)
		}
		if e.Get(p, "ghost") != nil {
			t.Fatal("ghost key present")
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestEngineFlushAndReadFromTable(t *testing.T) {
	k := sim.NewKernel(1)
	cfg := DefaultConfig()
	cfg.MemtableBytes = 10 << 10 // tiny: force flushes
	e, _ := newTestEngine(t, k, cfg)
	k.Spawn("client", func(p *sim.Proc) {
		for i := 0; i < 500; i++ {
			e.Apply(p, kv.Key(fmt.Sprintf("user%06d", i)), kv.Record{"f": kv.SizedValue(100)}, kv.Version(i+1))
		}
		p.Sleep(2e9) // let flushes finish
		if e.Flushes == 0 {
			t.Error("expected flushes")
		}
		for i := 0; i < 500; i += 61 {
			row := e.Get(p, kv.Key(fmt.Sprintf("user%06d", i)))
			if row == nil || !row.Live() {
				t.Errorf("lost key user%06d after flush", i)
			}
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestEngineCompactionReducesTables(t *testing.T) {
	k := sim.NewKernel(1)
	cfg := DefaultConfig()
	cfg.MemtableBytes = 8 << 10
	cfg.CompactMinTables = 3
	e, _ := newTestEngine(t, k, cfg)
	k.Spawn("client", func(p *sim.Proc) {
		for round := 0; round < 6; round++ {
			for i := 0; i < 60; i++ {
				key := kv.Key(fmt.Sprintf("user%06d", i))
				e.Apply(p, key, kv.Record{"f": kv.SizedValue(200)}, kv.Version(round*1000+i))
			}
			p.Sleep(5e8)
		}
		p.Sleep(5e9)
		if e.Compactions == 0 {
			t.Error("expected compactions")
		}
		// All data still present with the newest version.
		row := e.Get(p, "user000000")
		if row == nil || row.Version() != kv.Version(5000) {
			t.Errorf("row after compaction = %+v", row)
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestEngineDeleteHidesKey(t *testing.T) {
	k := sim.NewKernel(1)
	e, _ := newTestEngine(t, k, DefaultConfig())
	k.Spawn("client", func(p *sim.Proc) {
		e.Apply(p, "user1", kv.Record{"f": kv.SizedValue(10)}, 1)
		e.ApplyDelete(p, "user1", 2)
		row := e.Get(p, "user1")
		if row == nil {
			t.Fatal("tombstone must be returned for reconciliation")
		}
		if row.Live() {
			t.Fatal("deleted row is visible")
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestEngineScanMergesLevels(t *testing.T) {
	k := sim.NewKernel(1)
	cfg := DefaultConfig()
	cfg.MemtableBytes = 6 << 10
	e, _ := newTestEngine(t, k, cfg)
	k.Spawn("client", func(p *sim.Proc) {
		for i := 0; i < 300; i++ {
			e.Apply(p, kv.Key(fmt.Sprintf("user%06d", i)), kv.Record{"f": kv.SizedValue(50)}, kv.Version(i+1))
		}
		p.Sleep(2e9)
		// Overwrite a few in the new memtable.
		e.Apply(p, "user000010", kv.Record{"f": kv.SizedValue(999)}, 10_000)
		e.ApplyDelete(p, "user000011", 10_001)

		rows := e.Scan(p, "user000009", 5)
		if len(rows) != 5 {
			t.Fatalf("scan returned %d rows", len(rows))
		}
		if rows[0].Key != "user000009" || rows[1].Key != "user000010" {
			t.Fatalf("keys = %v %v", rows[0].Key, rows[1].Key)
		}
		if rows[1].Row.Record()["f"].Bytes() != 999 {
			t.Fatal("scan did not see newest version")
		}
		// user000011 deleted: next should be user000012.
		if rows[2].Key != "user000012" {
			t.Fatalf("deleted key not skipped: %v", rows[2].Key)
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestEngineScanEmptyRange(t *testing.T) {
	k := sim.NewKernel(1)
	e, _ := newTestEngine(t, k, DefaultConfig())
	k.Spawn("client", func(p *sim.Proc) {
		if rows := e.Scan(p, "z", 10); len(rows) != 0 {
			t.Errorf("scan = %v", rows)
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestEnginePropertyRandomOpsMatchModel(t *testing.T) {
	// Property test: random interleaving of writes/deletes across flush
	// boundaries always reads back what a flat map model predicts.
	k := sim.NewKernel(99)
	cfg := DefaultConfig()
	cfg.MemtableBytes = 4 << 10
	cfg.CompactMinTables = 3
	e, _ := newTestEngine(t, k, cfg)
	k.Spawn("client", func(p *sim.Proc) {
		rng := rand.New(rand.NewSource(7))
		model := map[kv.Key]kv.Version{} // latest live version, 0 = deleted/absent
		ver := kv.Version(0)
		for op := 0; op < 2000; op++ {
			key := kv.Key(fmt.Sprintf("user%03d", rng.Intn(100)))
			ver++
			switch rng.Intn(10) {
			case 0:
				e.ApplyDelete(p, key, ver)
				model[key] = 0
			default:
				e.Apply(p, key, kv.Record{"f": kv.SizedValue(int(ver%97) + 1)}, ver)
				model[key] = ver
			}
			if op%100 == 0 {
				p.Sleep(3e8) // let background work interleave
			}
		}
		p.Sleep(5e9)
		for key, want := range model {
			row := e.Get(p, key)
			switch {
			case want == 0:
				if row != nil && row.Live() {
					t.Errorf("%s should be deleted, got %+v", key, row)
				}
			default:
				if row == nil || !row.Live() || row.Version() != want {
					t.Errorf("%s version mismatch: want %d got %+v", key, want, row)
				}
			}
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
}
