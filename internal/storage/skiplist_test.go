package storage

import (
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"sync/atomic"
	"testing"
	"time"

	"cloudbench/internal/kv"
	"cloudbench/internal/sim"
)

// checkSkiplist runs a script against the arena skiplist and a sorted-slice
// model. Three bytes a step: the operation and a tower height; the key's
// two bytes. Inserts take their height from the script, so every height
// from 1 to maxHeight is reachable; Get, GetOrCreate of a held key and seek
// must agree with the model after every step, every level must link its
// nodes in key order, and a row must stay where it was carved (a chunk is
// never moved or reused). At the end each level must link exactly the
// nodes that reach it, and a cursor must iterate the model's keys.
func checkSkiplist(t *testing.T, script []byte) {
	t.Helper()
	s := newSkiplist(sim.NewSource(1))
	var keys []kv.Key // the model, sorted
	rows := map[kv.Key]*Row{}
	heights := map[kv.Key]int{}
	for step := 0; len(script) >= 3; step, script = step+1, script[3:] {
		op, h := script[0]%4, 1+int(script[0]>>2)%maxHeight
		key := kv.Key(fmt.Sprintf("k%05d", int(script[1])<<8|int(script[2])))
		i, held := slices.BinarySearch(keys, key)
		switch op {
		case 0, 1:
			var prev [maxHeight]*slNode
			if n := s.findGE(key, &prev); n != nil && n.key == key {
				if !held || &n.row != rows[key] {
					t.Fatalf("step %d: findGE(%s) found a node the model lacks or moved", step, key)
				}
				continue
			}
			if held {
				t.Fatalf("step %d: findGE(%s) missed a held key", step, key)
			}
			r := s.insert(key, &prev, h)
			r.Tomb = kv.Version(len(keys) + 1) // marks whose row it is
			keys = slices.Insert(keys, i, key)
			rows[key], heights[key] = r, h
		case 2:
			if got := s.Get(key); got != rows[key] {
				t.Fatalf("step %d: Get(%s) = %p, model %p", step, key, got, rows[key])
			}
			if held && s.GetOrCreate(key) != rows[key] {
				t.Fatalf("step %d: GetOrCreate(%s) of a held key moved its row", step, key)
			}
		case 3:
			c := s.seek(key)
			if c.valid() != (i < len(keys)) || c.valid() && (c.key() != keys[i] || c.row() != rows[keys[i]]) {
				t.Fatalf("step %d: seek(%s) disagrees with the model at %d of %d", step, key, i, len(keys))
			}
		}
		if s.Len() != len(keys) {
			t.Fatalf("step %d: Len = %d, model %d", step, s.Len(), len(keys))
		}
		for level := 0; level < maxHeight; level++ {
			for n := s.head.next[level]; n != nil && n.next[level] != nil; n = n.next[level] {
				if n.next[level].key <= n.key {
					t.Fatalf("step %d: level %d links %s to %s", step, level, n.key, n.next[level].key)
				}
			}
		}
	}
	for level := 0; level < maxHeight; level++ {
		var want []kv.Key
		for _, k := range keys {
			if heights[k] > level {
				want = append(want, k)
			}
		}
		var got []kv.Key
		for n := s.head.next[level]; n != nil; n = n.next[level] {
			if len(n.next) != heights[n.key] || cap(n.next) != len(n.next) || &n.row != rows[n.key] {
				t.Fatalf("level %d: node %s has a tower of %d (cap %d), want %d, or a moved row", level, n.key, len(n.next), cap(n.next), heights[n.key])
			}
			got = append(got, n.key)
		}
		if !slices.Equal(got, want) {
			t.Fatalf("level %d links %d keys, want %d: %v", level, len(got), len(want), got)
		}
	}
	var walked []kv.Key
	for c := s.seek(""); c.valid(); c.next() {
		if c.row() != rows[c.key()] || c.row().Tomb == 0 {
			t.Fatalf("iteration reached %s with a moved or unmarked row", c.key())
		}
		walked = append(walked, c.key())
	}
	if !slices.Equal(walked, keys) {
		t.Fatalf("iteration visits %d keys, model %d", len(walked), len(keys))
	}
}

// skiplistScripts are the fuzz target's seeds, which go test replays: one
// spelled out — every height in turn, each new key read back and a
// neighbour sought — and five random ones, the two longest mostly inserts
// that fill chunk after chunk, up to maxChunk and past it.
func skiplistScripts() [][]byte {
	var scripts [][]byte
	var tall []byte
	for h := 0; h < maxHeight; h++ {
		tall = append(tall, byte(h<<2), 0, byte(200-h), 2, 0, byte(200-h), 3, 0, byte(100+h))
	}
	scripts = append(scripts, tall)
	rng := rand.New(rand.NewSource(31))
	for _, steps := range []int{30, 200, 600, 1500, 3000} {
		script := make([]byte, 3*steps)
		rng.Read(script)
		for i := 0; i < len(script); i += 3 {
			if steps >= 1500 && i%2 == 0 {
				script[i] &^= 3 // mostly inserts: fill chunk after chunk
			}
		}
		scripts = append(scripts, script)
	}
	return scripts
}

func FuzzSkiplist(f *testing.F) {
	for _, script := range skiplistScripts() {
		f.Add(script)
	}
	f.Fuzz(checkSkiplist)
}

// TestFlushedMemtableArenaIsFreed: once a memtable is flushed, its table
// holds its rows by value and nothing points into its arena, so the arena
// is collected while the engine, the table and the rows a reader got from
// it are all still live.
func TestFlushedMemtableArenaIsFreed(t *testing.T) {
	k := sim.NewKernel(1)
	cfg := DefaultConfig()
	cfg.MemtableBytes = 1 << 30
	cfg.SyncWAL = false
	e, _ := newTestEngine(t, k, cfg)
	var freed atomic.Bool
	var read []*Row
	k.Spawn("load", func(p *sim.Proc) {
		for i := 0; i < 100; i++ {
			e.Apply(p, kv.Key(fmt.Sprintf("user%06d", i)), fullRecord(10), kv.Version(i+1))
		}
		watchArena(t, e.mem, &freed)
		e.ForceFlush()
		p.Sleep(time.Second) // the flush lands
		for i := 0; i < 100; i++ {
			read = append(read, e.Get(p, kv.Key(fmt.Sprintf("user%06d", i))))
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if e.Flushes != 1 || len(e.tables) != 1 || len(e.imm) != 0 {
		t.Fatalf("flushes=%d tables=%d imm=%d, want 1, 1, 0", e.Flushes, len(e.tables), len(e.imm))
	}
	for i := 0; i < 100 && !freed.Load(); i++ {
		runtime.GC()
		time.Sleep(time.Millisecond)
	}
	if !freed.Load() {
		t.Error("the flushed memtable's arena is still reachable")
	}
	if len(read) != 100 || read[99].Version() != 100 || &e.tables[0].entries[99].Row != read[99] {
		t.Error("reads after the flush did not return the table's rows")
	}
	runtime.KeepAlive(e)
}

// watchArena sets freed when s's arena is collected. A finalizer cannot
// watch a chunk itself: the nodes and towers of a chunk point at each
// other, and a finalizer never runs on an object that reaches itself. So it
// watches a sentinel that only the arena holds, cells planted in an unused
// node of the last chunk, which every node reaches along level 0 when the
// keys arrived in order.
func watchArena(t *testing.T, s *skiplist, freed *atomic.Bool) {
	if len(s.nodes) == 0 {
		t.Fatal("the last chunk is full: no node to plant the sentinel in")
	}
	sentinel := make([]Cell, 1)
	runtime.SetFinalizer(&sentinel[0], func(*Cell) { freed.Store(true) })
	s.nodes[len(s.nodes)-1].row.cells = sentinel
}

// TestMemtableNewKeyAllocs: a key new to the memtable costs it nothing of
// its own — its node, row and tower come from the arena's chunks — so a
// write whose cells are already built allocates nothing, amortized.
func TestMemtableNewKeyAllocs(t *testing.T) {
	k := sim.NewKernel(1)
	cfg := DefaultConfig()
	cfg.MemtableBytes = 1 << 40
	cfg.SyncWAL = false
	e, _ := newTestEngine(t, k, cfg)
	const runs = 20000
	keys := make([]kv.Key, runs+1)
	for i := range keys {
		keys[i] = kv.Key(fmt.Sprintf("user%06d", i))
	}
	w := &Write{Rec: fullRecord(10), Ver: 1}
	k.Spawn("writer", func(p *sim.Proc) {
		i := 0
		allocs := testing.AllocsPerRun(runs, func() {
			e.ApplyShared(p, keys[i], w)
			i++
		})
		if allocs != 0 || e.mem.Len() != runs+1 {
			t.Errorf("a new memtable key: %.2f allocs/op over %d keys, want 0", allocs, e.mem.Len())
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
}
