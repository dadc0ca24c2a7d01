// Package storage implements the log-structured storage engine shared by
// the databases: a write-ahead log with group commit, a skiplist memtable
// that carves its nodes and rows from its own arena, immutable SSTables
// that hold their rows by value with block indexes and bloom filters, an
// LRU block cache, and size-tiered compaction.
//
// The engine stores real data structures in memory while charging disk and
// network costs in virtual time through the cluster package, so performance
// behaviour (cache misses, compaction interference, WAL batching) is
// modeled mechanistically.
package storage

import (
	"slices"
	"strings"

	"cloudbench/internal/kv"
)

// Cell is one field value with the version that wrote it.
type Cell struct {
	Field string
	Val   kv.Value
	Ver   kv.Version
}

// Row is the storage representation of a record: per-cell versions enable
// last-write-wins reconciliation of partial updates, and a tombstone
// version shadows older cells after a delete.
//
// Cells live in one flat slice sorted by field name. A row is mutable while
// its creator owns it and frozen once it is shared: the engine freezes a
// memtable's rows when the memtable is rotated and BuildTable freezes the
// rows it installs, copies of those rows' headers that share their cells.
// Engine.Get and Engine.Scan hand frozen rows out without copying, so
// Apply, Delete and MergeFrom on a frozen row panic; readers that need a
// reconciled row use Merged, which copies only when the two rows actually
// diverge — into a scratch row the reader owns, when it passes one. The zero Row is an empty mutable row, so an owner can embed
// its scratch by value.
//
// A memtable row that a replicated write created holds that Write's cells,
// shared with every other replica's row of it (Engine.ApplyShared). Nobody
// writes through shared cells: the row copies them before its first write
// that would (mergeCells, via unshare), and Reset and snapshot drop them
// rather than reuse their capacity.
type Row struct {
	cells  []Cell     // sorted by Field, no duplicates
	Tomb   kv.Version // delete timestamp; cells with Ver <= Tomb are dead
	frozen bool
	shared bool // cells are a Write's, read-only
}

// Write is one versioned write of a record, built by the caller that fans
// it out and applied to each of its engines with Engine.ApplyShared. Its
// sorted cells are built the first time an engine adopts them — into a
// memtable row the key has no cells in yet — and shared by every later one;
// nothing writes them after that. A caller that pools its Write starts each
// use from a fresh one, so cells some row still holds are never reused.
type Write struct {
	Rec kv.Record
	Ver kv.Version
	// Tomb is a delete the write carries with it: a repair of a row that
	// was deleted and then written again. 0: none.
	Tomb kv.Version

	size  int // Rec.Bytes(), once known
	cells []Cell
}

// bytes returns the modeled size of the write's record, computed once.
func (w *Write) bytes() int {
	if w.size == 0 {
		w.size = w.Rec.Bytes()
	}
	return w.size
}

// sortedCells returns the write's cells, building them on first use.
func (w *Write) sortedCells() []Cell {
	if w.cells == nil {
		w.cells = appendSorted(make([]Cell, 0, len(w.Rec)), w.Rec, w.Ver)
	}
	return w.cells
}

// NewRow returns an empty mutable row.
func NewRow() *Row { return &Row{} }

// Cell returns the cell stored under field, dead or alive.
func (r *Row) Cell(field string) (Cell, bool) {
	for _, c := range r.cells {
		if c.Field == field {
			return c, true
		}
	}
	return Cell{}, false
}

func (r *Row) mustOwn() {
	if r.frozen {
		panic("storage: mutation of a frozen row (shared with an SSTable or a flushing memtable); use Merged or Clone")
	}
}

// Apply merges a write of rec at version ver into the row, keeping the
// newest version of each cell. A write into an empty row sizes the cell
// slice once from len(rec); a write of fields the row already holds
// updates them in place without allocating.
func (r *Row) Apply(rec kv.Record, ver kv.Version) { r.apply(&Write{Rec: rec, Ver: ver}, false) }

// apply merges w into the row. An empty row adopts w's cells when share is
// set and builds its own otherwise; a row that holds cells merges w's into
// them, from w's own when some engine has built them and from stack scratch
// when none has.
func (r *Row) apply(w *Write, share bool) {
	r.mustOwn()
	if w.Tomb > r.Tomb {
		r.Tomb = w.Tomb
	}
	switch {
	case len(r.cells) == 0 && share:
		r.cells, r.shared = w.sortedCells(), true
	case len(r.cells) == 0:
		r.cells, r.shared = appendSorted(make([]Cell, 0, len(w.Rec)), w.Rec, w.Ver), false
	case w.cells != nil:
		r.mergeCells(w.cells)
	default:
		var buf [16]Cell // stack scratch: mergeCells copies out of it
		r.mergeCells(appendSorted(buf[:0], w.Rec, w.Ver))
	}
}

// appendSorted appends rec's fields to dst as cells at version ver, sorted
// by field, so that map iteration order never reaches a row.
func appendSorted(dst []Cell, rec kv.Record, ver kv.Version) []Cell {
	for f, v := range rec {
		dst = append(dst, Cell{Field: f, Val: v, Ver: ver})
	}
	slices.SortFunc(dst, byField)
	return dst
}

func byField(a, b Cell) int { return strings.Compare(a.Field, b.Field) }

// Delete applies a tombstone at version ver.
func (r *Row) Delete(ver kv.Version) {
	r.mustOwn()
	if ver > r.Tomb {
		r.Tomb = ver
	}
}

// MergeFrom folds another row's cells and tombstone into r (cell-wise
// newest wins, the incumbent keeps a version tie). It is the
// reconciliation step used when reading across memtable and SSTables, and
// between replicas. o is only read.
func (r *Row) MergeFrom(o *Row) {
	r.mustOwn()
	if o == nil {
		return
	}
	if o.Tomb > r.Tomb {
		r.Tomb = o.Tomb
	}
	r.mergeCells(o.cells)
}

// mergeCells is the two-pointer merge of field-sorted add into r.cells.
// Fields r already holds are reconciled in place. Fields it lacks are merged
// in back to front when r.cells has the spare capacity — a scratch row that
// has held a row this wide before — and cost one exact-capacity reallocation
// otherwise. add is copied from, never retained, and must not alias r.cells.
// Shared cells are first copied (unshare): both steps write in place.
//
//simlint:hotpath
func (r *Row) mergeCells(add []Cell) {
	if r.shared && !r.unshare(add) {
		return
	}
	old := r.cells
	missing, i := 0, 0
	for _, c := range add {
		for i < len(old) && old[i].Field < c.Field {
			i++
		}
		if i == len(old) || old[i].Field != c.Field {
			missing++
		} else if c.Ver > old[i].Ver {
			old[i] = c
		}
	}
	if missing == 0 {
		return
	}
	if n := len(old) + missing; n <= cap(old) {
		// Every slot at or above the write index has been read already: w
		// stays ahead of i by the number of add's cells still to place.
		out := old[:n]
		i, w := len(old)-1, n-1
		for j := len(add) - 1; j >= 0; j-- {
			for i >= 0 && old[i].Field > add[j].Field {
				out[w] = old[i]
				i--
				w--
			}
			if i >= 0 && old[i].Field == add[j].Field {
				continue // reconciled in the first pass
			}
			out[w] = add[j]
			w--
		}
		r.cells = out
		return
	}
	out := make([]Cell, 0, len(old)+missing)
	i = 0
	for _, c := range add {
		for i < len(old) && old[i].Field < c.Field {
			out = append(out, old[i])
			i++
		}
		if i == len(old) || old[i].Field != c.Field {
			out = append(out, c)
		}
	}
	r.cells = append(out, old[i:]...)
}

// unshare replaces r's shared cells with a private copy, sized for the
// fields add brings that r lacks, before mergeCells writes into it. It
// reports false, and leaves the cells shared, when add changes nothing.
func (r *Row) unshare(add []Cell) bool {
	missing, newer, i := 0, false, 0
	for _, c := range add {
		for i < len(r.cells) && r.cells[i].Field < c.Field {
			i++
		}
		if i == len(r.cells) || r.cells[i].Field != c.Field {
			missing++
		} else if c.Ver > r.cells[i].Ver {
			newer = true
		}
	}
	if missing == 0 && !newer {
		return false
	}
	r.cells, r.shared = append(make([]Cell, 0, len(r.cells)+missing), r.cells...), false
	return true
}

// Merged returns the reconciliation of a and b (a is the incumbent on
// version ties) without mutating a source: a itself when b holds no newer
// cell or tombstone — the common case between in-sync replicas and between
// a compacted table and the tables it shadows — and a mutable row
// otherwise: into, reusing its cell capacity, or a fresh row when into is
// nil. An a that already is into is merged in place. Either of a and b may
// be nil; the other is returned. into must not be b.
//
//simlint:hotpath
func Merged(a, b, into *Row) *Row {
	if a == nil {
		return b
	}
	if b == nil || !a.gainsFrom(b) {
		return a
	}
	m := into
	if m != a {
		m = a.snapshot(into)
	}
	m.MergeFrom(b)
	return m
}

// snapshot copies r as it is now into into's reused cell capacity — a fresh
// row when into is nil — and returns the mutable copy.
func (r *Row) snapshot(into *Row) *Row {
	if into == nil {
		return r.Clone()
	}
	into.mustOwn()
	into.cells, into.shared = append(into.spare(), r.cells...), false
	into.Tomb = r.Tomb
	return into
}

// reserve gives r's spare capacity room for n cells ahead of a snapshot
// into it, so that a merge then builds there without growing.
func (r *Row) reserve(n int) {
	r.mustOwn()
	if cap(r.spare()) < n {
		r.cells, r.shared = make([]Cell, 0, n), false
	}
}

// Reset empties a scratch row, keeping its cell capacity: whoever still
// holds it reads a row that was never written.
func (r *Row) Reset() {
	r.mustOwn()
	r.cells, r.shared, r.Tomb = r.spare(), false, 0
}

// spare returns r's cell capacity to refill from empty: none when the cells
// are shared, whose capacity is a Write's.
func (r *Row) spare() []Cell {
	if r.shared {
		return nil
	}
	return r.cells[:0]
}

// gainsFrom reports whether merging o into r would change r.
func (r *Row) gainsFrom(o *Row) bool {
	if o.Tomb > r.Tomb {
		return true
	}
	i := 0
	for _, c := range o.cells {
		for i < len(r.cells) && r.cells[i].Field < c.Field {
			i++
		}
		if i == len(r.cells) || r.cells[i].Field != c.Field || c.Ver > r.cells[i].Ver {
			return true
		}
	}
	return false
}

// Live reports whether the row has any cell newer than its tombstone.
func (r *Row) Live() bool {
	for _, c := range r.cells {
		if c.Ver > r.Tomb {
			return true
		}
	}
	return false
}

// Record materializes the row's live cells as a Record, or nil if the row
// is fully dead.
func (r *Row) Record() kv.Record { return r.Project(nil) }

// Project is ProjectInto without a record to fill: it allocates the one it
// returns, sized exactly.
//
//simlint:coldpath
func (r *Row) Project(fields []string) kv.Record { return r.ProjectInto(fields, nil) }

// ProjectInto materializes the row's live cells restricted to fields (nil or
// empty selects all) in one pass. A fully dead row yields nil; a live row
// yields a non-nil record even when none of the requested fields is live.
// The record is into, emptied first whatever the row holds — clear keeps the
// map's storage, so a caller that passes the same record again and again
// stops allocating once it has held its widest row — or, when into is nil, a
// fresh one with an exact size hint.
//
//simlint:hotpath
func (r *Row) ProjectInto(fields []string, into kv.Record) kv.Record {
	clear(into)
	live := 0
	for _, c := range r.cells {
		if c.Ver > r.Tomb {
			live++
		}
	}
	if live == 0 {
		return nil
	}
	if len(fields) == 0 {
		if into == nil {
			into = make(kv.Record, live)
		}
		for _, c := range r.cells {
			if c.Ver > r.Tomb {
				into[c.Field] = c.Val
			}
		}
		return into
	}
	if into == nil {
		into = make(kv.Record, min(live, len(fields)))
	}
	for _, f := range fields {
		if c, ok := r.Cell(f); ok && c.Ver > r.Tomb {
			into[f] = c.Val
		}
	}
	return into
}

// ProjectedBytes returns Project(fields).Bytes() — the modeled size of the
// row's live cells restricted to fields — without building the record. A
// field named twice counts once, as it would in the map.
func (r *Row) ProjectedBytes(fields []string) int {
	n := 0
	if len(fields) == 0 {
		for _, c := range r.cells {
			if c.Ver > r.Tomb {
				n += kv.FieldBytes(c.Field, c.Val)
			}
		}
		return n
	}
	for i, f := range fields {
		if c, ok := r.Cell(f); ok && c.Ver > r.Tomb && !slices.Contains(fields[:i], f) {
			n += kv.FieldBytes(f, c.Val)
		}
	}
	return n
}

// Version returns the row's overall version: the maximum of its cell
// versions and tombstone. Replica digests compare this value.
func (r *Row) Version() kv.Version {
	v := r.Tomb
	for _, c := range r.cells {
		if c.Ver > v {
			v = c.Ver
		}
	}
	return v
}

// Bytes returns the row's modeled on-disk size.
func (r *Row) Bytes() int {
	n := 16 // key/row overhead
	for _, c := range r.cells {
		n += len(c.Field) + 10 + c.Val.Bytes()
	}
	return n
}

// Clone returns a mutable copy of the row (values are immutable by
// convention).
func (r *Row) Clone() *Row {
	c := &Row{cells: make([]Cell, len(r.cells)), Tomb: r.Tomb}
	copy(c.cells, r.cells)
	return c
}
