package storage

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"time"

	"cloudbench/internal/kv"
	"cloudbench/internal/sim"
)

// refRow is the map-based row the flat Row replaced, kept as the reference
// model for the differential test below.
type refRow struct {
	cells map[string]Cell
	tomb  kv.Version
}

func newRefRow() *refRow { return &refRow{cells: map[string]Cell{}} }

func (r *refRow) apply(rec kv.Record, ver kv.Version) {
	for f, v := range rec {
		if c, ok := r.cells[f]; !ok || ver > c.Ver {
			r.cells[f] = Cell{Field: f, Val: v, Ver: ver}
		}
	}
}

func (r *refRow) delete(ver kv.Version) { r.tomb = max(r.tomb, ver) }

func (r *refRow) mergeFrom(o *refRow) {
	r.tomb = max(r.tomb, o.tomb)
	for f, c := range o.cells {
		if mine, ok := r.cells[f]; !ok || c.Ver > mine.Ver {
			r.cells[f] = c
		}
	}
}

func (r *refRow) live() bool {
	for _, c := range r.cells {
		if c.Ver > r.tomb {
			return true
		}
	}
	return false
}

func (r *refRow) clone() *refRow {
	c := newRefRow()
	c.mergeFrom(r)
	return c
}

// check compares every observable of the flat row against the model.
func (r *refRow) check(t *testing.T, step int, got *Row) {
	t.Helper()
	var rec kv.Record
	ver, bytes, live := r.tomb, 16, false
	for f, c := range r.cells {
		ver = max(ver, c.Ver)
		bytes += len(f) + 10 + c.Val.Bytes()
		if c.Ver > r.tomb {
			live = true
			if rec == nil {
				rec = kv.Record{}
			}
			rec[f] = c.Val
		}
	}
	if !reflect.DeepEqual(got.Record(), rec) || got.Version() != ver || got.Live() != live ||
		got.Bytes() != bytes || got.Tomb != r.tomb || len(got.cells) != len(r.cells) {
		t.Fatalf("step %d: flat row %+v diverged from model %+v", step, got, r)
	}
	if !sort.SliceIsSorted(got.cells, func(i, j int) bool { return got.cells[i].Field < got.cells[j].Field }) {
		t.Fatalf("step %d: cells out of field order: %+v", step, got.cells)
	}
	var names []string
	for _, want := range r.cells {
		if c, ok := got.Cell(want.Field); !ok || !reflect.DeepEqual(c, want) {
			t.Fatalf("step %d: cell %q = %+v, want %+v", step, want.Field, c, want)
		}
		names = append(names, want.Field)
	}
	// The byte count a scan charges is the size of the record it would
	// build: over all fields, and over a list holding some of the row's
	// fields (dead ones too), one of them twice, and one it lacks.
	sort.Strings(names)
	some := append(names[:len(names)/2:len(names)/2], "absent")
	some = append(some, some[0])
	for _, fields := range [][]string{nil, some} {
		if n, want := got.ProjectedBytes(fields), got.Project(fields).Bytes(); n != want {
			t.Fatalf("step %d: ProjectedBytes(%v) = %d, Project(...).Bytes() = %d for %+v", step, fields, n, want, got)
		}
	}
}

func sameRow(a, b *Row) bool {
	return a.Tomb == b.Tomb && len(a.cells) == len(b.cells) &&
		(len(a.cells) == 0 || reflect.DeepEqual(a.cells, b.cells))
}

// TestRowMatchesMapModel drives random Apply/Delete/MergeFrom/Merged
// sequences through the flat Row and the map model. Versions come from a
// small range so ties are frequent, and a tying write carries a different
// value, so a tie resolved toward the newcomer is caught. Half the Merged
// calls build their result in one scratch row reused for the whole sequence,
// which has by then held rows of every width: the merge runs back to front
// in its spare capacity.
func TestRowMatchesMapModel(t *testing.T) {
	for seed := int64(1); seed <= 50; seed++ {
		rng := rand.New(rand.NewSource(seed))
		randRec := func() kv.Record {
			rec := kv.Record{}
			for n := rng.Intn(5); n >= 0; n-- {
				rec[fmt.Sprintf("f%d", rng.Intn(12))] = kv.SizedValue(1 + rng.Intn(1000))
			}
			return rec
		}
		rows := []*Row{NewRow(), NewRow(), NewRow()}
		refs := []*refRow{newRefRow(), newRefRow(), newRefRow()}
		scratch := NewRow()
		for step := 0; step < 400; step++ {
			i, j := rng.Intn(3), rng.Intn(3)
			ver := kv.Version(1 + rng.Intn(20))
			switch op := rng.Intn(10); {
			case op < 5:
				rec := randRec()
				rows[i].Apply(rec, ver)
				refs[i].apply(rec, ver)
			case op < 6:
				rows[i].Delete(ver)
				refs[i].delete(ver)
			case op < 8 && i != j:
				rows[i].MergeFrom(rows[j])
				refs[i].mergeFrom(refs[j])
			case op < 9 && i != j:
				before := rows[i].Clone()
				m := Merged(rows[i], rows[j], nil)
				want := refs[i].clone()
				want.mergeFrom(refs[j])
				want.check(t, step, m)
				if !sameRow(rows[i], before) {
					t.Fatalf("step %d: Merged mutated its first argument", step)
				}
				if sameRow(m, before) && m != rows[i] {
					t.Fatalf("step %d: Merged copied a row the other side adds nothing to", step)
				}
				if m != rows[i] {
					rows[i], refs[i] = m, want
				}
			case i != j:
				// The same into the scratch, then the third row folded into
				// the result where it lies, as Reconcile does.
				before, third := rows[i].Clone(), 3-i-j
				room := cap(scratch.cells)
				m := Merged(rows[i], rows[j], scratch)
				want := refs[i].clone()
				want.mergeFrom(refs[j])
				want.check(t, step, m)
				m = Merged(m, rows[third], scratch)
				want.mergeFrom(refs[third])
				want.check(t, step, m)
				if !sameRow(rows[i], before) || m != rows[i] && m != scratch {
					t.Fatalf("step %d: Merged into a scratch mutated its first argument or built its result elsewhere", step)
				}
				if len(m.cells) <= room && cap(scratch.cells) != room {
					t.Fatalf("step %d: a %d-cell merge reallocated a scratch with room for %d", step, len(m.cells), room)
				}
			}
			refs[i].check(t, step, rows[i])
		}
	}
}

// TestMergeCellsInPlaceKeepsIncumbentOnTies is the case the random
// sequences above reach only by chance, spelled out: a scratch that has held
// a wide row takes a narrow one and merges a row that interleaves with it —
// fields before, between and after its own, one of its fields at a tying
// version with another value, one older, one newer — without leaving its
// backing array.
func TestMergeCellsInPlaceKeepsIncumbentOnTies(t *testing.T) {
	cell := func(f string, size int, ver kv.Version) Cell {
		return Cell{Field: f, Val: kv.SizedValue(size), Ver: ver}
	}
	wide, narrow, other := NewRow(), NewRow(), NewRow()
	wide.Apply(fullRecord(12), 1)
	narrow.cells = []Cell{cell("b", 1, 2), cell("d", 1, 2), cell("f", 1, 2)}
	other.cells = []Cell{cell("a", 2, 1), cell("b", 2, 2), cell("c", 2, 3), cell("d", 2, 1), cell("f", 2, 3), cell("g", 2, 1)}
	other.Tomb = 1
	var scratch Row
	wide.snapshot(&scratch)
	backing := &scratch.cells[0]
	m := Merged(narrow, other, &scratch)
	want := []Cell{cell("a", 2, 1), cell("b", 1, 2), cell("c", 2, 3), cell("d", 1, 2), cell("f", 2, 3), cell("g", 2, 1)}
	if m != &scratch || !reflect.DeepEqual(m.cells, want) || m.Tomb != 1 {
		t.Errorf("merged %+v (tomb %d), want %+v (tomb 1) in the scratch", m.cells, m.Tomb, want)
	}
	if &m.cells[0] != backing {
		t.Error("a 6-cell merge left a 12-cell scratch's backing array")
	}
	if len(narrow.cells) != 3 || !reflect.DeepEqual(narrow.cells[0], cell("b", 1, 2)) {
		t.Errorf("the incumbent was written: %+v", narrow.cells)
	}
	scratch.Reset()
	if scratch.Live() || scratch.Version() != 0 || len(scratch.cells) != 0 || cap(scratch.cells) < 12 {
		t.Errorf("reset scratch: %+v, want an empty never-written row with its capacity", scratch)
	}
}

// checkGetInto runs a script of writes, deletes, flushes and pauses against
// one engine and, after every step, reads each key twice: with a scratch
// row reused for the whole script, and with none. The two must agree cell
// for cell, both with the map model of the same writes, and a scratch read
// must hand out either a stored frozen row or the scratch itself — never a
// row it allocated. Three bytes a step: the operation and five field bits;
// the key and six more field bits; the version.
//
// Versions come from a small range, so writes arrive out of order and tie.
// A cell's value is a function of its field and version: which of two tying
// writes a read keeps depends on where compaction has put them (the
// databases draw unique versions), and the model does not follow that.
func checkGetInto(t *testing.T, script []byte) {
	t.Helper()
	k := sim.NewKernel(1)
	cfg := DefaultConfig()
	cfg.MemtableBytes = 1 << 30 // the script says when to flush
	cfg.CompactMinTables = 2
	cfg.CacheBytes = 0 // every table a read touches is a disk read it sleeps through
	cfg.SyncWAL = false
	e, _ := newTestEngine(t, k, cfg)
	keys := []kv.Key{"k0", "k1", "k2", "k3"}
	model := make([]*refRow, len(keys))
	var scratch Row
	k.Spawn("script", func(p *sim.Proc) {
		for step := 0; len(script) >= 3; step, script = step+1, script[3:] {
			op, key, ver := script[0], int(script[1])%len(keys), kv.Version(1+script[2]%32)
			if op%8 < 5 && model[key] == nil {
				model[key] = newRefRow()
			}
			switch op % 8 {
			case 0, 1, 2, 3:
				rec := kv.Record{}
				for f, bits := 0, max(1, uint(op>>3)|uint(script[1]>>2)<<5); f < 11; f++ {
					if bits>>f&1 == 1 {
						rec[fmt.Sprintf("f%02d", f)] = kv.SizedValue(1 + 16*int(ver) + f)
					}
				}
				e.Apply(p, keys[key], rec, ver)
				model[key].apply(rec, ver)
			case 4:
				e.ApplyDelete(p, keys[key], ver)
				model[key].delete(ver)
			case 5:
				e.ForceFlush() // the reads below find the snapshot still flushing
			case 6:
				p.Sleep(time.Second) // flushes and compactions land
			}
			for i, key := range keys {
				got := e.GetInto(p, key, &scratch)
				if (got == nil) != (model[i] == nil) {
					t.Fatalf("step %d: GetInto(%s) = %v, model %v", step, key, got, model[i])
				}
				if got == nil {
					continue
				}
				if !got.frozen && got != &scratch {
					t.Fatalf("step %d: GetInto(%s) built a row outside the scratch it was given", step, key)
				}
				model[i].check(t, step, got)
				if want := e.Get(p, key); !sameRow(got, want) {
					t.Fatalf("step %d: GetInto(%s) = %+v, Get = %+v", step, key, got, want)
				}
			}
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
}

// getIntoScripts are the differential test's inputs and the fuzz target's
// seeds: one spelled out — a wide row and a narrow one, flushed, rewritten
// in part, flushed again and compacted, with a delete in between — and
// random ones.
func getIntoScripts() [][]byte {
	scripts := [][]byte{{
		0xf8, 0xfc, 1, // k0: eleven fields at version 2
		0x08, 0x01, 1, // k1: one field
		5, 0, 0, // flush, read while flushing
		6, 0, 0, // settle
		0x10, 0x04, 4, // k0: two other fields, newer: memtable over SSTable
		0x08, 0x01, 0, // k1: the same field, older
		4, 1, 2, // k1 deleted
		5, 0, 0, 6, 0, 0, // second table: compaction
		0x18, 0x00, 9, // k0 again, over the compacted table
	}}
	rng := rand.New(rand.NewSource(23))
	for n := 0; n < 40; n++ {
		script := make([]byte, 3*(20+rng.Intn(100)))
		rng.Read(script)
		scripts = append(scripts, script)
	}
	return scripts
}

// TestGetIntoMatchesGet is the differential test of the scratch-row read
// path against the allocating one and the map model.
func TestGetIntoMatchesGet(t *testing.T) {
	for _, script := range getIntoScripts() {
		checkGetInto(t, script)
	}
}

func FuzzGetInto(f *testing.F) {
	for _, script := range getIntoScripts()[:8] {
		f.Add(script)
	}
	f.Fuzz(checkGetInto)
}

// checkSharedWrites runs a script against three engines that apply the same
// Writes through ApplyShared — so their memtable rows hold one Write's cells
// — interleaved with what one engine does alone: an update of fields its row
// already holds, a delete, a flush, a pause in which flushes and compactions
// land. After every step each engine's read of each key must match its own
// map model: a row that wrote through cells it shares would show up in
// another engine's read, or in a frozen row's. Three bytes a step: the
// operation and five field bits; the key, the engines (for a shared write)
// or the engine (otherwise), and one more field bit; the version. Values
// are a function of field and version, as in checkGetInto.
func checkSharedWrites(t *testing.T, script []byte) {
	t.Helper()
	k := sim.NewKernel(1)
	cfg := DefaultConfig()
	cfg.MemtableBytes = 1 << 30 // the script says when to flush
	cfg.CompactMinTables = 2
	cfg.CacheBytes = 0
	cfg.SyncWAL = false
	keys := []kv.Key{"k0", "k1", "k2", "k3"}
	var engines [3]*Engine
	var models [3][]*refRow
	var scratch [3]Row
	for i := range engines {
		engines[i], _ = newTestEngine(t, k, cfg)
		models[i] = make([]*refRow, len(keys))
	}
	model := func(e, key int) *refRow {
		if models[e][key] == nil {
			models[e][key] = newRefRow()
		}
		return models[e][key]
	}
	k.Spawn("script", func(p *sim.Proc) {
		for step := 0; len(script) >= 3; step, script = step+1, script[3:] {
			op, key, ver := script[0], int(script[1])%len(keys), kv.Version(1+script[2]%32)
			one := int(script[1]>>2) % len(engines)
			rec := kv.Record{}
			for f, bits := 0, uint(op>>3)|uint(script[1]>>7)<<5; f < 6; f++ {
				if bits>>f&1 == 1 {
					rec[fmt.Sprintf("f%d", f)] = kv.SizedValue(1 + 16*int(ver) + f)
				}
			}
			switch op % 8 {
			case 0, 1, 2, 3:
				// A shared write to the engines in the mask, all when it is
				// empty; case 3 carries an older tombstone, as a repair does.
				w := &Write{Rec: rec, Ver: ver}
				if op%8 == 3 {
					w.Tomb = ver / 2
				}
				for e := range engines {
					if mask := script[1] >> 2 & 7; mask == 0 || mask>>e&1 == 1 {
						engines[e].ApplyShared(p, keys[key], w)
						model(e, key).apply(w.Rec, w.Ver)
						model(e, key).delete(w.Tomb)
					}
				}
			case 4:
				// One engine rewrites fields its row already holds.
				m := model(one, key)
				held := kv.Record{}
				for f := range m.cells {
					if len(rec) == 0 || rec[f].Size > 0 {
						held[f] = kv.SizedValue(1 + 16*int(ver) + int(f[1]-'0'))
					}
				}
				engines[one].Apply(p, keys[key], held, ver)
				m.apply(held, ver)
			case 5:
				engines[one].ApplyDelete(p, keys[key], ver)
				model(one, key).delete(ver)
			case 6:
				engines[one].ForceFlush()
			case 7:
				p.Sleep(time.Second) // flushes and compactions land
			}
			for e, eng := range engines {
				for i, key := range keys {
					got, want := eng.GetInto(p, key, &scratch[e]), models[e][i]
					if (got == nil) != (want == nil) {
						t.Fatalf("step %d: engine %d: GetInto(%s) = %v, model %v", step, e, key, got, want)
					}
					if got != nil {
						want.check(t, step, got)
					}
				}
			}
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
}

// sharedWriteScripts are the model test's inputs and the fuzz target's
// seeds: one spelled out — a write shared by all three engines, rewritten
// in place on one, flushed on another and rewritten there again — and
// random ones.
func sharedWriteScripts() [][]byte {
	scripts := [][]byte{{
		0x18, 0x00, 1, // k0: f0 and f1 on every engine, one Write's cells
		4, 0x00, 5, // engine 0 rewrites both in place
		6, 0x04, 0, // engine 1 flushes its row: frozen, still shared
		4, 0x08, 7, // engine 2 rewrites both in place
		7, 0, 0, // settle
		0x20, 0x1c, 9, // k0: f2 on every engine, over differing rows
		0x0b, 0x05, 12, // k1: f0 with a tombstone, engine 0 only
		4, 0x05, 13, // engine 1 rewrites k1, which it does not hold
	}}
	rng := rand.New(rand.NewSource(31))
	for n := 0; n < 40; n++ {
		script := make([]byte, 3*(20+rng.Intn(100)))
		rng.Read(script)
		scripts = append(scripts, script)
	}
	return scripts
}

// TestSharedWritesMatchModel is the copy-on-write test of shared cells.
func TestSharedWritesMatchModel(t *testing.T) {
	for _, script := range sharedWriteScripts() {
		checkSharedWrites(t, script)
	}
}

func FuzzSharedWrites(f *testing.F) {
	for _, script := range sharedWriteScripts()[:8] {
		f.Add(script)
	}
	f.Fuzz(checkSharedWrites)
}

// TestGetIntoSnapshotsAtTheLookup: a read that finds its key in the active
// memtable and then sleeps on a table's disk block answers with the
// memtable row as it was when it looked, whatever is written meanwhile —
// with a scratch row exactly as without one.
func TestGetIntoSnapshotsAtTheLookup(t *testing.T) {
	for _, into := range []*Row{nil, NewRow()} {
		k := sim.NewKernel(1)
		cfg := DefaultConfig()
		cfg.MemtableBytes = 1 << 30
		cfg.CacheBytes = 0
		cfg.SyncWAL = false
		e, _ := newTestEngine(t, k, cfg)
		k.Spawn("reader", func(p *sim.Proc) {
			e.Apply(p, "k", kv.Record{"a": kv.SizedValue(1), "b": kv.SizedValue(1)}, 1)
			e.ForceFlush()
			p.Sleep(time.Second)
			e.Apply(p, "k", kv.Record{"b": kv.SizedValue(2)}, 2)
			k.Go("writer", func(q *sim.Proc) { // runs once the reader is at the disk
				e.Apply(q, "k", kv.Record{"a": kv.SizedValue(3), "c": kv.SizedValue(3)}, 3)
			})
			row, before := e.GetInto(p, "k", into), p.Now()
			if p.Now() == before && e.mem.Get("k").Version() != 3 {
				t.Fatal("the writer did not run during the read")
			}
			if rec := row.Record(); row.Version() != 2 || len(rec) != 2 || rec["a"].Bytes() != 1 || rec["b"].Bytes() != 2 {
				t.Errorf("into %v: read %v @%d, want a=1 b=2 @2: the row as of the memtable lookup", into != nil, rec, row.Version())
			}
		})
		if err := k.Run(); err != nil {
			t.Fatal(err)
		}
	}
}

func TestRowProjectMatchesRecordProject(t *testing.T) {
	r := NewRow()
	r.Apply(kv.Record{"a": kv.SizedValue(1), "b": kv.SizedValue(2), "c": kv.SizedValue(3)}, 10)
	r.Delete(12)
	r.Apply(kv.Record{"b": kv.SizedValue(4)}, 15)
	for _, fields := range [][]string{nil, {}, {"b"}, {"a", "b", "zz"}, {"a"}, {"b", "b"}} {
		if got, want := r.Project(fields), r.Record().Project(fields); !reflect.DeepEqual(got, want) || got == nil {
			t.Errorf("Project(%v) = %v, want %v", fields, got, want)
		}
		if got, want := r.ProjectedBytes(fields), r.Project(fields).Bytes(); got != want {
			t.Errorf("ProjectedBytes(%v) = %d, want %d", fields, got, want)
		}
	}
	r.Delete(20)
	if r.Project(nil) != nil || r.Project([]string{"b"}) != nil {
		t.Error("projection of a dead row should be nil")
	}
	if r.ProjectedBytes(nil) != 0 || r.ProjectedBytes([]string{"b"}) != 0 {
		t.Error("a dead row should project to zero bytes")
	}
}

// refProject is the projection written the obvious way, allocating every
// map: the reference ProjectInto's reused record is checked against.
func refProject(r *Row, fields []string) kv.Record {
	live := kv.Record{}
	for _, c := range r.cells {
		if c.Ver > r.Tomb {
			live[c.Field] = c.Val
		}
	}
	if len(live) == 0 {
		return nil
	}
	if len(fields) == 0 {
		return live
	}
	rec := kv.Record{}
	for _, f := range fields {
		if v, ok := live[f]; ok {
			rec[f] = v
		}
	}
	return rec
}

var projectFieldLists = [][]string{
	nil, {}, {"f0"}, {"f3", "f3"}, {"zz"}, {"f9", "zz", "f1", "f9"}, {"f7", "f2"},
	{"f0", "f1", "f2", "f3", "f4", "f5", "f6", "f7", "f8", "f9"},
}

// checkProjectInto projects a sequence of rows into one record, as a client
// does with the one it returns from Read, and compares every result with
// Project and the reference. Four bytes a row: a ten-bit mask of the fields
// it holds (their versions 1..4 follow from the field and the second byte),
// a tombstone version 0..5 and a field list.
func checkProjectInto(t *testing.T, script []byte) {
	t.Helper()
	var into kv.Record
	for step := 0; len(script) >= 4; step, script = step+1, script[4:] {
		r := NewRow()
		for f, mask := 0, uint(script[0])|uint(script[1]&3)<<8; f < 10; f++ {
			if mask>>f&1 == 1 {
				ver := kv.Version(1 + (f+int(script[1]>>2))%4)
				r.Apply(kv.Record{fmt.Sprintf("f%d", f): kv.SizedValue(10*f + int(ver))}, ver)
			}
		}
		r.Delete(kv.Version(script[2] % 6))
		fields := projectFieldLists[int(script[3])%len(projectFieldLists)]
		want := refProject(r, fields)
		got := r.ProjectInto(fields, into)
		if !reflect.DeepEqual(got, want) || !reflect.DeepEqual(r.Project(fields), want) {
			t.Fatalf("step %d: ProjectInto(%v) of %+v = %v, Project %v, reference %v", step, fields, r, got, r.Project(fields), want)
		}
		if got == nil && len(into) != 0 {
			t.Fatalf("step %d: a dead row left %v in the reused record", step, into)
		}
		if got != nil {
			if into != nil && reflect.ValueOf(got).Pointer() != reflect.ValueOf(into).Pointer() {
				t.Fatalf("step %d: ProjectInto built a record beside the one it was given", step)
			}
			into = got
		}
	}
}

// projectIntoScripts are the table test's cases and the fuzz target's seeds.
var projectIntoScripts = []struct {
	name   string
	script []byte
}{
	{"a ten-field row, a one-field row, a dead row, the ten again", []byte{
		0xff, 0x03, 0, 0,
		0x08, 0x00, 0, 0,
		0xff, 0x03, 5, 0,
		0xff, 0x03, 0, 7}},
	{"a tombstone between the cells' versions", []byte{0x0f, 0x00, 2, 0, 0x0f, 0x00, 2, 7}},
	{"duplicate and absent field names", []byte{0xff, 0x03, 0, 3, 0xff, 0x03, 0, 5, 0x01, 0x00, 0, 5, 0xff, 0x03, 0, 4}},
	{"live row, none of the requested fields live", []byte{0x09, 0x00, 1, 2, 0x02, 0x00, 0, 6}},
	{"an empty field list is all fields", []byte{0x30, 0x01, 0, 1, 0x03, 0x00, 0, 0}},
	{"never written", []byte{0, 0, 0, 0, 0xff, 0x03, 0, 0, 0, 0, 0, 7}},
}

// TestProjectIntoMatchesProject: a record reused across rows of every width,
// tombstoned, dead and projected every way reads exactly as a fresh one.
func TestProjectIntoMatchesProject(t *testing.T) {
	for _, c := range projectIntoScripts {
		t.Run(c.name, func(t *testing.T) { checkProjectInto(t, c.script) })
	}
	rng := rand.New(rand.NewSource(31))
	script := make([]byte, 4*64)
	for n := 0; n < 300; n++ {
		rng.Read(script)
		checkProjectInto(t, script)
	}
}

func FuzzProjectInto(f *testing.F) {
	for _, c := range projectIntoScripts {
		f.Add(c.script)
	}
	f.Fuzz(checkProjectInto)
}

// TestProjectIntoReusedRecordZeroAlloc: the proof behind ProjectInto's
// hotpath marker, which the analyzer cannot give for a map store.
func TestProjectIntoReusedRecordZeroAlloc(t *testing.T) {
	wide, narrow := NewRow(), NewRow()
	wide.Apply(fullRecord(10), 1)
	narrow.Apply(kv.Record{"field3": kv.SizedValue(7)}, 1)
	into := wide.Project(nil)
	for _, fields := range [][]string{nil, {"field3", "field9"}} {
		if allocs := testing.AllocsPerRun(1000, func() {
			if len(wide.ProjectInto(fields, into)) == 0 || len(narrow.ProjectInto(fields, into)) != 1 {
				t.Error("projection lost its fields")
			}
		}); allocs != 0 {
			t.Errorf("ProjectInto(%v) into a record that has held the row: %.1f allocs/op, want 0", fields, allocs)
		}
	}
}

func mustPanic(t *testing.T, what string, f func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Errorf("%s on a frozen row did not panic", what)
		}
	}()
	f()
}

// fullRecord is a YCSB-shaped record: n 100-byte fields.
func fullRecord(n int) kv.Record {
	rec := kv.Record{}
	for f := 0; f < n; f++ {
		rec[fmt.Sprintf("field%d", f)] = kv.SizedValue(100)
	}
	return rec
}

// flushedEngine returns an engine holding rows keys in one cache-resident
// SSTable and nothing in its memtable.
func flushedEngine(t *testing.T, k *sim.Kernel, rows int) *Engine {
	t.Helper()
	cfg := DefaultConfig()
	cfg.MemtableBytes = 1 << 30
	cfg.CacheBytes = 1 << 30
	cfg.SyncWAL = false
	e, _ := newTestEngine(t, k, cfg)
	k.Spawn("load", func(p *sim.Proc) {
		for i := 0; i < rows; i++ {
			e.Apply(p, kv.Key(fmt.Sprintf("user%06d", i)), fullRecord(10), kv.Version(i+1))
		}
		e.ForceFlush()
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if e.Tables() != 1 || e.mem.Len() != 0 || len(e.imm) != 0 {
		t.Fatalf("tables=%d mem=%d imm=%d, want one table only", e.Tables(), e.mem.Len(), len(e.imm))
	}
	return e
}

// TestReadsShareFrozenRows pins the ownership contract: a key held by one
// SSTable comes back from Get and Scan as the table's own row, uncopied and
// frozen; a key also in the memtable comes back as a private merged copy;
// and nothing a reader can do changes what the table stores.
func TestReadsShareFrozenRows(t *testing.T) {
	k := sim.NewKernel(1)
	e := flushedEngine(t, k, 200)
	stored := &e.tables[0].entries[7]
	want := stored.Row.Clone()
	k.Spawn("reader", func(p *sim.Proc) {
		got := e.Get(p, stored.Key)
		scanned := e.Scan(p, stored.Key, 3)
		if got != &stored.Row || scanned[0].Row != &stored.Row {
			t.Error("single-source read copied the SSTable's row")
		}
		mustPanic(t, "Apply", func() { got.Apply(kv.Record{"field0": kv.SizedValue(1)}, 1<<40) })
		mustPanic(t, "Delete", func() { got.Delete(1 << 40) })
		mustPanic(t, "MergeFrom", func() { scanned[0].Row.MergeFrom(want) })

		// A newer partial write in the memtable: reads now return a merged
		// copy, and the rows underneath stay as they were.
		e.Apply(p, stored.Key, kv.Record{"field3": kv.SizedValue(7)}, 1<<40)
		memRow := e.mem.Get(stored.Key)
		for _, r := range []*Row{e.Get(p, stored.Key), e.Scan(p, stored.Key, 1)[0].Row} {
			if r == &stored.Row || r == memRow {
				t.Error("two-source read aliased one of its sources")
			}
			if r.Version() != 1<<40 || len(r.cells) != 10 || r.Record()["field3"].Bytes() != 7 {
				t.Errorf("merged row = %+v", r)
			}
			r.Delete(1 << 41) // the merged copy is the caller's own
		}
		if len(memRow.cells) != 1 || memRow.Tomb != 0 {
			t.Errorf("memtable row changed under readers: %+v", memRow)
		}
		// Rotating the memtable freezes its rows.
		e.ForceFlush()
		mustPanic(t, "Apply", func() { memRow.Apply(kv.Record{"x": kv.SizedValue(1)}, 1<<42) })
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if !sameRow(&stored.Row, want) || !stored.Row.frozen {
		t.Errorf("stored row changed: %+v, want %+v", stored.Row, want)
	}
}

// TestCompactionMatchesMapMerge checks the streaming k-way merge against
// the map-and-sort merge it replaced: same keys in the same order, same
// merged cells, same modeled size, and a key held by one input keeping that
// input's cells.
func TestCompactionMatchesMapMerge(t *testing.T) {
	k := sim.NewKernel(1)
	cfg := DefaultConfig()
	cfg.MemtableBytes = 1 << 30
	cfg.CompactMinTables = 4
	cfg.SyncWAL = false
	e, _ := newTestEngine(t, k, cfg)
	model := map[kv.Key]*refRow{}
	rng := rand.New(rand.NewSource(9))
	var once []Cell
	k.Spawn("load", func(p *sim.Proc) {
		ver := kv.Version(0)
		for table := 0; table < 4; table++ {
			for i := 0; i < 300; i++ {
				key := kv.Key(fmt.Sprintf("user%04d", rng.Intn(400)))
				rec := kv.Record{fmt.Sprintf("f%d", rng.Intn(6)): kv.SizedValue(10 + rng.Intn(90))}
				ver++
				if model[key] == nil {
					model[key] = newRefRow()
				}
				if rng.Intn(20) == 0 {
					e.ApplyDelete(p, key, ver)
					model[key].delete(ver)
					continue
				}
				e.Apply(p, key, rec, ver)
				model[key].apply(rec, ver)
			}
			if table == 0 {
				e.Apply(p, "solo", kv.Record{"f": kv.SizedValue(1)}, 1)
				model["solo"] = newRefRow()
				model["solo"].apply(kv.Record{"f": kv.SizedValue(1)}, 1)
				once = e.mem.Get("solo").cells
			}
			e.ForceFlush()
			p.Sleep(1e9)
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if e.Compactions != 1 || e.Tables() != 1 {
		t.Fatalf("compactions=%d tables=%d, want 1 and 1", e.Compactions, e.Tables())
	}
	out := e.tables[0]
	if out.Len() != len(model) {
		t.Fatalf("compacted table has %d keys, want %d", out.Len(), len(model))
	}
	var bytes int64
	for i := range out.entries {
		en := &out.entries[i]
		if i > 0 && out.entries[i-1].Key >= en.Key {
			t.Fatalf("entries out of order at %d: %q then %q", i, out.entries[i-1].Key, en.Key)
		}
		model[en.Key].check(t, i, &en.Row)
		if !en.Row.frozen {
			t.Fatalf("row %q installed unfrozen", en.Key)
		}
		bytes += int64(en.Row.Bytes() + len(en.Key))
	}
	if out.Bytes() != bytes {
		t.Errorf("table bytes = %d, want %d", out.Bytes(), bytes)
	}
	if got := out.entries[sort.Search(out.Len(), func(i int) bool { return out.entries[i].Key >= "solo" })].Row.cells; len(got) != 1 || &got[0] != &once[0] {
		t.Error("a key held by one input had its cells copied instead of shared")
	}
}

// The allocation gates: the regression fence for the copy-free read path.

func TestGetSingleSSTableZeroAlloc(t *testing.T) {
	k := sim.NewKernel(1)
	e := flushedEngine(t, k, 500)
	k.Spawn("reader", func(p *sim.Proc) {
		i := 0
		allocs := testing.AllocsPerRun(1000, func() {
			i = (i + 37) % 500
			if e.Get(p, e.tables[0].entries[i].Key) == nil {
				t.Error("missing row")
			}
		})
		if allocs != 0 {
			t.Errorf("Get of a key in one cache-resident SSTable: %.1f allocs/op, want 0", allocs)
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
}

// TestGetMemtableOverSSTableZeroAlloc: the zipfian case — a key rewritten
// in part since its flush, so the read snapshots the memtable row and merges
// the table's under it — costs nothing either once the caller's scratch row
// has held a row that wide, and is counted as a copy.
func TestGetMemtableOverSSTableZeroAlloc(t *testing.T) {
	k := sim.NewKernel(1)
	e := flushedEngine(t, k, 500)
	k.Spawn("reader", func(p *sim.Proc) {
		for i := 0; i < 500; i += 2 {
			e.Apply(p, e.tables[0].entries[i].Key, kv.Record{"field3": kv.SizedValue(7)}, 1<<40)
		}
		var scratch Row
		i, copies := 0, e.Copies
		read := func() {
			i = (i + 74) % 500
			if row := e.GetInto(p, e.tables[0].entries[i].Key, &scratch); row != &scratch || len(row.cells) != 10 || row.Version() != 1<<40 {
				t.Errorf("row %d = %+v, want the ten-cell merge in the scratch", i, row)
			}
		}
		read()
		if allocs := testing.AllocsPerRun(1000, read); allocs != 0 {
			t.Errorf("GetInto of a key in the memtable over one cache-resident SSTable: %.1f allocs/op, want 0", allocs)
		}
		if n := e.Copies - copies; n != 1002 {
			t.Errorf("Copies rose by %d over 1002 merging reads", n)
		}
		if e.GetInto(p, e.tables[0].entries[1].Key, &scratch) != &e.tables[0].entries[1].Row || e.Copies-copies != 1002 {
			t.Error("a single-source read was copied, or counted as a copy")
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestRowMergeFromFreshAllocs(t *testing.T) {
	src := NewRow()
	src.Apply(fullRecord(10), 1)
	allocs := testing.AllocsPerRun(1000, func() {
		r := NewRow()
		r.MergeFrom(src)
		if len(r.cells) != 10 {
			t.Error("short merge")
		}
	})
	if allocs > 2 {
		t.Errorf("NewRow+MergeFrom(10 fields): %.1f allocs/op, want <= 2", allocs)
	}
	// Rewriting fields a row already holds stays in place.
	rec := kv.Record{"field3": kv.SizedValue(5)}
	ver := kv.Version(1)
	if allocs := testing.AllocsPerRun(1000, func() { ver++; src.Apply(rec, ver) }); allocs != 0 {
		t.Errorf("Apply over existing fields: %.1f allocs/op, want 0", allocs)
	}
}

func TestScanSingleTableAllocsIndependentOfRows(t *testing.T) {
	k := sim.NewKernel(1)
	e := flushedEngine(t, k, 500)
	k.Spawn("reader", func(p *sim.Proc) {
		for _, limit := range []int{5, 50, 400} {
			allocs := testing.AllocsPerRun(200, func() {
				if rows := e.Scan(p, "user000010", limit); len(rows) != limit {
					t.Errorf("scan returned %d rows, want %d", len(rows), limit)
				}
			})
			// The result slice; the level cursors stay on the stack.
			if allocs > 1 {
				t.Errorf("Scan(limit %d) over one flushed table: %.1f allocs/op, want <= 1", limit, allocs)
			}
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
}
