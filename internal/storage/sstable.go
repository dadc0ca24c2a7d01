package storage

import (
	"slices"
	"sort"

	"cloudbench/internal/kv"
	"cloudbench/internal/sim"
)

// TableEntry is one key's frozen row inside an SSTable. The table holds the
// row by value: its header is the table's own, and its cells may be shared
// with the memtable row or the input table row it was copied from.
type TableEntry struct {
	Key kv.Key
	Row Row // frozen by BuildTable
}

// SSTable is an immutable sorted run of rows, organized into fixed-size
// blocks with an in-memory index of first keys and a bloom filter over all
// keys — the classic BigTable file layout.
type SSTable struct {
	ID      int64
	entries []TableEntry
	// blockStart[i] is the index of block i's first entry; blockBytes[i]
	// its modeled size.
	blockStart []int
	blockBytes []int
	firstKeys  []kv.Key
	bloom      *Bloom
	bytes      int64
}

// BuildTable constructs an SSTable from entries, which must be sorted by
// key and contain no duplicates. It freezes every row it installs: from
// here on reads hand the rows out uncopied.
func BuildTable(id int64, entries []TableEntry, blockBytes int) *SSTable {
	t := &SSTable{ID: id, entries: entries, bloom: NewBloom(len(entries))}
	cur := 0
	for i := range entries {
		e := &entries[i]
		e.Row.frozen = true
		t.bloom.Add(e.Key)
		if cur == 0 || cur >= blockBytes {
			t.blockStart = append(t.blockStart, i)
			t.firstKeys = append(t.firstKeys, e.Key)
			t.blockBytes = append(t.blockBytes, 0)
			cur = 0
		}
		sz := e.Row.Bytes() + len(e.Key)
		cur += sz
		t.blockBytes[len(t.blockBytes)-1] += sz
		t.bytes += int64(sz)
	}
	return t
}

// Len returns the number of rows.
func (t *SSTable) Len() int { return len(t.entries) }

// Bytes returns the table's modeled on-disk size.
func (t *SSTable) Bytes() int64 { return t.bytes }

// Blocks returns the number of blocks.
func (t *SSTable) Blocks() int { return len(t.blockStart) }

// MayContain consults the bloom filter.
func (t *SSTable) MayContain(key kv.Key) bool {
	if len(t.entries) == 0 {
		return false
	}
	return t.bloom.MayContain(key)
}

// blockFor returns the index of the block that would hold key, or -1 if
// key precedes the table.
func (t *SSTable) blockFor(key kv.Key) int {
	i, starts := slices.BinarySearch(t.firstKeys, key)
	if starts {
		return i // key is a block's first key
	}
	return i - 1
}

// loadBlock charges for making block b resident: a cache hit is free, a
// miss pays one random block read against io.
func (t *SSTable) loadBlock(p *sim.Proc, io TableIO, cache *BlockCache, b int) {
	if b < 0 || b >= len(t.blockStart) {
		return
	}
	if cache != nil && cache.Touch(t.ID, b, t.blockBytes[b]) {
		return
	}
	io.ReadBlock(p, t.ID, t.blockBytes[b])
}

// Get returns the row at key, charging bloom-filtered block I/O, or nil.
//
//simlint:hotpath
func (t *SSTable) Get(p *sim.Proc, io TableIO, cache *BlockCache, key kv.Key) *Row {
	if !t.MayContain(key) {
		return nil
	}
	b := t.blockFor(key)
	if b < 0 {
		return nil
	}
	t.loadBlock(p, io, cache, b)
	lo, hi := t.blockStart[b], len(t.entries)
	if b+1 < len(t.blockStart) {
		hi = t.blockStart[b+1]
	}
	//simlint:ignore hotpath the closure handed to sort.Search does not escape (TestGetSingleSSTableZeroAlloc holds it at 0)
	i := lo + sort.Search(hi-lo, func(i int) bool { return t.entries[lo+i].Key >= key })
	if i < hi && t.entries[i].Key == key {
		return &t.entries[i].Row
	}
	return nil
}

// WarmCache inserts all of the table's blocks into the cache without
// charging I/O, modeling the OS page cache retaining a freshly written
// file (write-through): flush and compaction output is memory-resident
// until evicted.
func (t *SSTable) WarmCache(cache *BlockCache) {
	if cache == nil {
		return
	}
	for b := range t.blockStart {
		cache.Touch(t.ID, b, t.blockBytes[b])
	}
}

// seek returns a cursor at the first key ≥ start that charges p, against io
// and cache, one block load per block it enters — the first one here.
//
//simlint:hotpath
func (t *SSTable) seek(p *sim.Proc, io TableIO, cache *BlockCache, start kv.Key) cursor {
	//simlint:ignore hotpath the closure handed to sort.Search does not escape (the scan alloc gates hold a steady-state scan at its pooled count)
	i := sort.Search(len(t.entries), func(i int) bool { return t.entries[i].Key >= start })
	c := cursor{t: t, i: i, block: -1, p: p, io: io, cache: cache}
	c.chargeBlock()
	return c
}
