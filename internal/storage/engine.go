package storage

import (
	"slices"
	"sort"

	"cloudbench/internal/kv"
	"cloudbench/internal/sim"
)

// Config parameterizes an Engine.
type Config struct {
	MemtableBytes int64 // flush threshold
	BlockBytes    int   // SSTable block size
	CacheBytes    int64 // block cache budget
	// CompactMinTables is the number of similar-sized tables that
	// triggers a size-tiered compaction of that tier.
	CompactMinTables int
	// SyncWAL controls whether writes wait for the WAL batch to reach
	// the device before acknowledging.
	SyncWAL bool
}

// DefaultConfig returns engine parameters in line with HBase/Cassandra
// defaults, scaled for simulation.
func DefaultConfig() Config {
	return Config{
		MemtableBytes:    4 << 20,
		BlockBytes:       64 << 10,
		CacheBytes:       8 << 20,
		CompactMinTables: 4,
		SyncWAL:          true,
	}
}

// Engine is one node's log-structured store: WAL → memtable → SSTables,
// with a block cache and background flush and compaction processes that
// contend for the same simulated devices as foreground requests.
type Engine struct {
	k   *sim.Kernel
	cfg Config
	io  TableIO
	wal *WAL

	mem      *skiplist
	memBytes int64
	imm      []*skiplist // snapshots being flushed, newest first
	tables   []*SSTable  // newest first
	cache    *BlockCache
	rng      *sim.Source // memtable skiplist heights

	nextTableID int64
	compacting  bool

	// OnWALSync, when non-nil, observes each synchronous WAL append with
	// the virtual time it began — the tracing layer's WAL-phase hook.
	// Async appends are off the ack path and are not reported.
	//
	//simlint:hook
	OnWALSync func(p *sim.Proc, start sim.Time)

	// Metrics.
	Puts, Gets, Scans    int64
	Flushes, Compactions int64
	CompactedBytes       int64
	// Copies counts the Gets that could not hand out a source's own frozen
	// row: the key was in the active memtable, or two sources diverged.
	Copies int64
}

// NewEngine returns an engine writing tables through io and logging through
// wal. The seed fixes the memtable skiplist's node heights.
func NewEngine(k *sim.Kernel, cfg Config, io TableIO, log AppendLog, seed int64) *Engine {
	e := &Engine{
		k:     k,
		cfg:   cfg,
		io:    io,
		wal:   NewWAL(k, log),
		cache: NewBlockCache(cfg.CacheBytes),
		rng:   sim.NewSource(uint64(seed)),
	}
	e.mem = newSkiplist(e.rng)
	return e
}

// Cache exposes the engine's block cache for reporting.
func (e *Engine) Cache() *BlockCache { return e.cache }

// WALStats exposes the engine's WAL for reporting.
func (e *Engine) WALStats() *WAL { return e.wal }

// Tables returns the current number of SSTables.
func (e *Engine) Tables() int { return len(e.tables) }

// Apply writes rec at version ver to key: WAL append (when SyncWAL), then
// memtable apply, then a flush if the memtable is full. The memtable row
// owns its cells.
func (e *Engine) Apply(p *sim.Proc, key kv.Key, rec kv.Record, ver kv.Version) {
	w := Write{Rec: rec, Ver: ver}
	e.apply(p, key, &w, false)
}

// ApplyShared is Apply of a write that other engines apply too: a memtable
// row with no cells for key yet adopts w's, built once for all of them,
// instead of building its own. w is read and its cells kept, never written.
func (e *Engine) ApplyShared(p *sim.Proc, key kv.Key, w *Write) { e.apply(p, key, w, true) }

func (e *Engine) apply(p *sim.Proc, key kv.Key, w *Write, share bool) {
	e.Puts++
	size := w.bytes() + len(key) + 16
	e.walAppend(p, size)
	row := e.mem.GetOrCreate(key)
	row.apply(w, share)
	e.memBytes += int64(size)
	e.maybeFlush()
}

// walAppend logs size bytes, blocking until durable when SyncWAL is set
// and reporting the sync through the OnWALSync hook.
func (e *Engine) walAppend(p *sim.Proc, size int) {
	if !e.cfg.SyncWAL {
		e.wal.AppendAsync(size)
		return
	}
	if e.OnWALSync != nil {
		start := p.Now()
		e.wal.Append(p, size)
		e.OnWALSync(p, start)
		return
	}
	e.wal.Append(p, size)
}

// ApplyDelete writes a tombstone at key.
func (e *Engine) ApplyDelete(p *sim.Proc, key kv.Key, ver kv.Version) {
	e.Puts++
	size := len(key) + 24
	e.walAppend(p, size)
	row := e.mem.GetOrCreate(key)
	row.Delete(ver)
	e.memBytes += int64(size)
	e.maybeFlush()
}

// Get is GetInto without a scratch row: what it cannot share it allocates.
func (e *Engine) Get(p *sim.Proc, key kv.Key) *Row { return e.GetInto(p, key, nil) }

// GetInto returns the reconciled row at key (merged across memtable,
// flushing snapshots, and SSTables), or nil if the key has never been
// written. Deleted rows are returned with their tombstone so replica
// reconciliation can propagate deletes; use Live() to test visibility.
//
// The result is read-only for the caller: when exactly one immutable source
// holds the key it is that source's frozen row itself, shared with every
// other reader and valid forever. A row in the active memtable is
// snapshotted on the spot, and a merge is built only when a second source
// holds something the first lacks (see fold) — both in into, reusing its
// cell capacity, so such a result is the caller's for as long as into is;
// with into nil each is a fresh row.
//
//simlint:hotpath
func (e *Engine) GetInto(p *sim.Proc, key kv.Key, into *Row) *Row {
	e.Gets++
	out := fold(nil, e.mem.Get(key), into)
	for _, m := range e.imm {
		out = fold(out, m.Get(key), into)
	}
	for _, t := range e.tables {
		out = fold(out, t.Get(p, e.io, e.cache, key), into)
	}
	if out != nil && !out.frozen {
		e.Copies++
	}
	return out
}

// fold adds the next-older source's row r to the read result out. An
// unfrozen r sits in the active memtable and is snapshotted at once: writers
// may run while a later source loads a block. A frozen out is some source's
// own row and is never written — Merged copies it only if r really
// contributes; an unfrozen out is the copy this read already made, so r
// merges in place. Copies go to into, or to a fresh row when it is nil.
//
//simlint:hotpath
func fold(out, r, into *Row) *Row {
	switch {
	case r == nil:
		return out
	case out == nil && !r.frozen:
		return r.snapshot(into)
	case out == nil || out.frozen:
		return Merged(out, r, into)
	}
	out.MergeFrom(r)
	return out
}

// ScanRow is one result of Engine.ScanInto.
type ScanRow struct {
	Key kv.Key
	Row *Row
}

// Scan is ScanInto without a buffer: it allocates the slice it returns.
func (e *Engine) Scan(p *sim.Proc, start kv.Key, limit int) []ScanRow {
	return e.ScanInto(p, start, limit, nil)
}

// ScanInto returns up to limit live rows with key ≥ start, in key order,
// reconciled across all levels. I/O is charged per block entered. Rows are
// shared under the same read-only contract as Get. The result is built in
// into from its start, reusing its capacity — the caller's for as long as
// into is — or, when into is nil, in a fresh slice of capacity limit.
//
//simlint:hotpath
func (e *Engine) ScanInto(p *sim.Proc, start kv.Key, limit int, into []ScanRow) []ScanRow {
	e.Scans++
	var levels [scanLevels]cursor
	srcs := append(levels[:0], e.mem.seek(start))
	for _, m := range e.imm {
		srcs = append(srcs, m.seek(start))
	}
	for _, t := range e.tables {
		srcs = append(srcs, t.seek(p, e.io, e.cache, start))
	}
	out := into[:0]
	if out == nil {
		out = make([]ScanRow, 0, max(limit, 0))
	}
	for len(out) < limit {
		key, row, ok := mergeNext(srcs, nil)
		if !ok {
			break
		}
		if row.Live() {
			out = append(out, ScanRow{Key: key, Row: row})
		}
	}
	return out
}

// scanLevels is how many levels (memtable, flushing snapshots, SSTables) a
// scan holds cursors for on the stack; an engine deeper than that spills
// them to one heap slice. Size-tiered compaction at the default
// CompactMinTables keeps a few tables per tier, so 8 covers a loaded node.
const scanLevels = 8

// mergeNext pops the smallest current key across srcs (newest source
// first) and returns it with its reconciled row, advancing every source
// that held it. A merge that two sources' rows need is built in into,
// whose cells are sized once for every source's fields, or in a fresh row
// when into is nil.
//
//simlint:hotpath
func mergeNext(srcs []cursor, into *Row) (kv.Key, *Row, bool) {
	var minKey kv.Key
	found := false
	for i := range srcs {
		if s := &srcs[i]; s.valid() && (!found || s.key() < minKey) {
			minKey = s.key()
			found = true
		}
	}
	var row *Row
	for i := range srcs {
		if s := &srcs[i]; s.valid() && s.key() == minKey {
			if into != nil && row != nil && row.frozen && row.gainsFrom(s.row()) {
				into.reserve(unionLen(row, srcs[i:], minKey))
			}
			row = fold(row, s.row(), into)
			s.next()
		}
	}
	return minKey, row, found
}

// unionLen returns how many distinct fields row and the rows srcs hold at
// key have between them.
func unionLen(row *Row, srcs []cursor, key kv.Key) int {
	n := len(row.cells)
	for i := range srcs {
		if s := &srcs[i]; s.valid() && s.key() == key {
			for _, c := range s.row().cells {
				if _, ok := row.Cell(c.Field); !ok && !heldAt(srcs[:i], key, c.Field) {
					n++
				}
			}
		}
	}
	return n
}

// heldAt reports whether a row srcs hold at key has a cell for field.
func heldAt(srcs []cursor, key kv.Key, field string) bool {
	for i := range srcs {
		if s := &srcs[i]; s.valid() && s.key() == key {
			if _, ok := s.row().Cell(field); ok {
				return true
			}
		}
	}
	return false
}

// MergeScans is the coordinator's half of a fanned-out range scan: a
// streaming k-way merge of parts — one Engine.ScanInto result per replica
// asked, a nil one for a replica that did not answer — into the first
// limit live rows in key order, each a view restricted to fields. Replicas
// of one key reconcile with Merged in part order, so the first replica's
// own row is kept unless a later one really holds something newer. The
// merge consumes parts (each is resliced past what it used) and stops at
// limit without looking at the rest. The result is built in into from its
// start, reusing its capacity, or in a fresh slice when into is nil.
//
//simlint:hotpath
func MergeScans(parts [][]ScanRow, limit int, fields []string, into []kv.KV) []kv.KV {
	out := into[:0]
	if out == nil {
		out = make([]kv.KV, 0, max(limit, 0))
	}
	for len(out) < limit {
		var minKey kv.Key
		found := false
		for _, part := range parts {
			if len(part) > 0 && (!found || part[0].Key < minKey) {
				minKey = part[0].Key
				found = true
			}
		}
		if !found {
			break
		}
		var row *Row
		for i, part := range parts {
			if len(part) > 0 && part[0].Key == minKey {
				row = Merged(row, part[0].Row, nil)
				parts[i] = part[1:]
			}
		}
		if row.Live() {
			out = append(out, kv.View(minKey, row, fields))
		}
	}
	return out
}

// maybeFlush rotates a full memtable into the flushing list and starts a
// background flush process.
func (e *Engine) maybeFlush() {
	if e.memBytes < e.cfg.MemtableBytes {
		return
	}
	e.ForceFlush()
}

// ForceFlush rotates the current memtable (if non-empty) and flushes it in
// the background: once per memtable, not per operation.
//
//simlint:coldpath
func (e *Engine) ForceFlush() {
	if e.mem.Len() == 0 {
		return
	}
	snap := e.mem
	for c := snap.seek(""); c.valid(); c.next() {
		c.row().frozen = true // rotated out: readers share these rows from now on
	}
	e.imm = append([]*skiplist{snap}, e.imm...)
	e.mem = newSkiplist(e.rng)
	e.memBytes = 0
	// Flushes are spawned from whatever request filled the memtable;
	// detach the inherited trace context so flush work (including HDFS
	// pipeline writes) bills to the background class, not to that op.
	e.k.Go("flush", func(p *sim.Proc) { p.SetTraceCtx(nil); e.flush(p, snap) })
}

func (e *Engine) flush(p *sim.Proc, snap *skiplist) {
	entries := make([]TableEntry, 0, snap.Len())
	for c := snap.seek(""); c.valid(); c.next() {
		entries = append(entries, TableEntry{Key: c.key(), Row: *c.row()})
	}
	e.nextTableID++
	t := BuildTable(e.nextTableID, entries, e.cfg.BlockBytes)
	e.io.WriteTable(p, t.ID, t.Bytes())
	t.WarmCache(e.cache)
	// Install: newest first, remove the snapshot from the flushing list.
	e.tables = append([]*SSTable{t}, e.tables...)
	// DeleteFunc clears the slot it vacates, so the snapshot, and with it
	// the memtable's arena, is unreachable once its last reader is done.
	e.imm = slices.DeleteFunc(e.imm, func(m *skiplist) bool { return m == snap })
	e.Flushes++
	e.maybeCompact()
}

// tier buckets table sizes by power of four starting at 1 MB, mirroring
// size-tiered compaction's "similar size" grouping.
func tier(bytes int64) int {
	t := 0
	for bytes >= 1<<20 {
		bytes >>= 2
		t++
	}
	return t
}

// maybeCompact starts a background size-tiered compaction when some tier
// has at least CompactMinTables tables. One compaction runs at a time.
func (e *Engine) maybeCompact() {
	if e.compacting {
		return
	}
	byTier := map[int][]*SSTable{}
	for _, t := range e.tables {
		tr := tier(t.Bytes())
		byTier[tr] = append(byTier[tr], t)
	}
	// Visit tiers smallest-first: which tier compacts must not depend on
	// map iteration order, or the whole downstream event schedule (and
	// with it same-seed reproducibility) drifts between runs.
	tiers := make([]int, 0, len(byTier))
	for tr := range byTier {
		tiers = append(tiers, tr)
	}
	sort.Ints(tiers)
	for _, tr := range tiers {
		group := byTier[tr]
		if len(group) >= e.cfg.CompactMinTables {
			e.compacting = true
			inputs := group
			// Same detach as flush: compaction is background work.
			e.k.Go("compact", func(p *sim.Proc) { p.SetTraceCtx(nil); e.compact(p, inputs) })
			return
		}
	}
}

// compact merges inputs (which are a subset of e.tables, newest first)
// into one table, charging sequential read of the inputs and sequential
// write of the output.
func (e *Engine) compact(p *sim.Proc, inputs []*SSTable) {
	var inBytes int64
	inSet := make(map[*SSTable]bool, len(inputs))
	for _, t := range inputs {
		inBytes += t.Bytes()
		inSet[t] = true
		e.io.ReadTable(p, t.ID, t.Bytes())
	}

	// Streaming k-way merge over the inputs' already-sorted entries,
	// newest input first so version ties resolve as they do on reads. A
	// key held by one input keeps that input's cells under a copy of its
	// row header; a key whose inputs diverge is merged in its output slot.
	srcs := make([]cursor, len(inputs))
	total := 0
	for i, t := range inputs {
		srcs[i] = cursor{t: t} // no process: advancing charges nothing
		total += len(t.entries)
	}
	entries := make([]TableEntry, total+1) // every key once, and the probe past the last
	n := 0
	for ; ; n++ {
		en := &entries[n]
		key, row, ok := mergeNext(srcs, &en.Row)
		if !ok {
			break
		}
		en.Key = key
		if row != &en.Row {
			en.Row = *row
		}
	}
	entries = entries[:n]
	e.nextTableID++
	out := BuildTable(e.nextTableID, entries, e.cfg.BlockBytes)
	e.io.WriteTable(p, out.ID, out.Bytes())
	out.WarmCache(e.cache)

	// Replace the inputs with the merged table, preserving the relative
	// order of the survivors. The merged table takes the position of the
	// newest input (one compaction runs at a time, so every input is still
	// listed): reads reconcile cell-wise by version, not by table position,
	// so a survivor that ends up below it is still read correctly.
	next := make([]*SSTable, 0, len(e.tables)-len(inputs)+1)
	for _, t := range e.tables {
		switch {
		case !inSet[t]:
			next = append(next, t)
		case t == inputs[0]:
			next = append(next, out)
		}
	}
	e.tables = next
	for _, t := range inputs {
		e.io.DeleteTable(t.ID)
	}
	e.Compactions++
	e.CompactedBytes += inBytes
	e.compacting = false
	e.maybeCompact()
}
