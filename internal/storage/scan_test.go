package storage

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"testing"

	"cloudbench/internal/kv"
	"cloudbench/internal/sim"
)

// refScanMerge is the map-and-sort replica merge MergeScans replaced (it
// stood, twice, in the Cassandra coordinator and the objstore client),
// kept as the reference model.
func refScanMerge(parts [][]ScanRow, limit int) []ScanRow {
	merged := map[kv.Key]*Row{}
	for _, part := range parts {
		for _, r := range part {
			merged[r.Key] = Merged(merged[r.Key], r.Row, nil)
		}
	}
	keys := make([]kv.Key, 0, len(merged))
	for k := range merged {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	var out []ScanRow
	for _, k := range keys {
		if row := merged[k]; row.Live() && len(out) < limit {
			out = append(out, ScanRow{Key: k, Row: row})
		}
	}
	return out
}

// The scan-merge cases are byte strings so the property test and the fuzz
// target share one decoder (scanCase). A case is a header — limit, replica
// count, field list, then one byte per replica: failed, or how many rows its
// perHost budget let it return — followed by a keys × replicas matrix, one
// copyOf byte per replica's copy of each key.
const (
	failed = 0 // part header: the leg never answered
	whole  = 8 // part header: every key the replica holds
	absent = 0 // matrix: the replica does not hold the key
)

// copyOf encodes one replica's row: the versions of its fields a and b
// (0 = no such cell, else 1..7) and its tombstone (0 = none, else version
// 2·tomb, so it can fall below, between or above the cells).
func copyOf(a, b, tomb byte) byte { return a | b<<3 | tomb<<6 }

var scanFieldLists = [][]string{nil, {"a"}, {"b", "b"}, {"zz", "a"}}

var scanMergeCases = []struct {
	name string
	data []byte
}{
	{"replicas in sync", []byte{2, 2, 0, whole, whole, whole,
		copyOf(1, 1, 0), copyOf(1, 1, 0), copyOf(1, 1, 0),
		copyOf(2, 0, 0), copyOf(2, 0, 0), copyOf(2, 0, 0),
		copyOf(3, 3, 0), copyOf(3, 3, 0), copyOf(3, 3, 0)}},
	{"divergent replicas, each holding another key subset", []byte{4, 2, 0, whole, whole, whole,
		copyOf(1, 0, 0), absent, copyOf(1, 2, 0),
		absent, copyOf(4, 4, 0), absent,
		copyOf(2, 1, 0), copyOf(1, 2, 0), absent,
		absent, absent, copyOf(1, 0, 0)}},
	{"a newer cell only on a later replica", []byte{3, 2, 1, whole, whole, whole,
		copyOf(1, 1, 0), copyOf(1, 1, 0), copyOf(5, 1, 0),
		copyOf(2, 2, 0), copyOf(2, 3, 0), copyOf(2, 2, 0)}},
	{"version ties keep the earlier replica's value", []byte{3, 1, 0, whole, whole,
		copyOf(3, 3, 0), copyOf(3, 3, 0),
		copyOf(1, 4, 0), copyOf(4, 1, 0)}},
	{"tombstoned rows inside the range", []byte{2, 2, 0, whole, whole, whole,
		copyOf(1, 1, 0), copyOf(1, 1, 1), copyOf(1, 1, 0), // deleted on one replica: dead
		copyOf(1, 0, 0), copyOf(0, 3, 1), absent, // tombstone between the cells: b survives
		copyOf(0, 0, 2), copyOf(0, 0, 2), copyOf(0, 0, 2), // dead everywhere
		copyOf(2, 2, 0), copyOf(2, 2, 0), copyOf(2, 2, 0),
		copyOf(3, 3, 0), absent, absent}},
	{"a failed leg", []byte{3, 2, 3, whole, failed, whole,
		copyOf(1, 1, 0), copyOf(7, 7, 0), copyOf(1, 2, 0),
		absent, copyOf(7, 7, 0), absent,
		copyOf(2, 2, 0), copyOf(7, 7, 3), copyOf(2, 2, 0)}},
	{"every leg failed", []byte{3, 1, 0, failed, failed, copyOf(1, 1, 0), copyOf(1, 1, 0)}},
	{"parts truncated by the per-host budget", []byte{5, 2, 0, 1, 2, whole,
		copyOf(1, 1, 0), copyOf(1, 1, 0), absent,
		copyOf(2, 2, 0), copyOf(2, 2, 0), copyOf(2, 3, 0),
		copyOf(3, 3, 0), copyOf(3, 3, 0), copyOf(3, 3, 0),
		absent, copyOf(4, 4, 0), copyOf(4, 4, 0)}},
	{"limit cuts inside a key group", []byte{0, 2, 2, whole, whole, whole,
		copyOf(1, 1, 0), copyOf(1, 2, 0), copyOf(1, 3, 0),
		copyOf(2, 2, 0), copyOf(2, 2, 0), copyOf(2, 2, 0)}},
	{"fewer live rows than the limit", []byte{5, 1, 0, whole, whole,
		copyOf(1, 1, 1), copyOf(1, 1, 0),
		copyOf(2, 0, 0), absent}},
}

// scanCase decodes a case (see scanMergeCases; missing bytes read as zero)
// into per-replica parts of frozen rows, each part key-sorted and free of
// duplicates as Engine.Scan returns them — except that, unlike Engine.Scan,
// a part here may carry dead rows.
func scanCase(data []byte) (parts [][]ScanRow, limit int, fields []string) {
	next := func() byte {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return b
	}
	limit = 1 + int(next()%6)
	parts = make([][]ScanRow, 1+next()%4)
	fields = scanFieldLists[next()%4]
	keep := make([]int, len(parts))
	for i := range keep {
		keep[i] = int(next() % 9)
	}
	for key := 0; key < 8; key++ {
		for i := range parts {
			c := next()
			if c == absent || len(parts[i]) == keep[i] {
				continue
			}
			r := NewRow()
			if a := kv.Version(c & 7); a > 0 {
				r.Apply(kv.Record{"a": kv.SizedValue(10*i + int(a))}, a)
			}
			if b := kv.Version(c >> 3 & 7); b > 0 {
				r.Apply(kv.Record{"b": kv.SizedValue(100 + 10*i + int(b))}, b)
			}
			if tomb := kv.Version(c >> 6); tomb > 0 {
				r.Delete(2 * tomb)
			}
			r.frozen = true // a merge that writes into a replica's row panics
			parts[i] = append(parts[i], ScanRow{Key: kv.Key(fmt.Sprintf("key%d", key)), Row: r})
		}
	}
	return parts, limit, fields
}

// checkScanMerge runs one case through MergeScans and the reference.
func checkScanMerge(t *testing.T, data []byte) {
	t.Helper()
	parts, limit, fields := scanCase(data)
	want := refScanMerge(parts, limit)
	// Once into a fresh slice and once into the buffer every earlier case
	// has used, as a client's Scan does.
	scanMergeBuf = MergeScans(slices.Clone(parts), limit, fields, scanMergeBuf)
	for _, got := range [][]kv.KV{MergeScans(slices.Clone(parts), limit, fields, nil), scanMergeBuf} {
		if len(got) != len(want) {
			t.Fatalf("case %v: merged %d rows, reference %d", data, len(got), len(want))
		}
		for i, w := range want {
			rec := w.Row.Project(fields)
			if got[i].Key != w.Key || !reflect.DeepEqual(got[i].Record(), rec) || got[i].Bytes() != rec.Bytes() {
				t.Fatalf("case %v row %d: %s %v (%d bytes), reference %s %v (%d bytes)",
					data, i, got[i].Key, got[i].Record(), got[i].Bytes(), w.Key, rec, rec.Bytes())
			}
		}
	}
}

var scanMergeBuf []kv.KV

// TestMergeScansMatchesMapAndSort checks the streaming replica merge
// against the map-and-sort code it replaced, on the named cases and on
// random part sets.
func TestMergeScansMatchesMapAndSort(t *testing.T) {
	for _, c := range scanMergeCases {
		t.Run(c.name, func(t *testing.T) { checkScanMerge(t, c.data) })
	}
	rng := rand.New(rand.NewSource(19))
	data := make([]byte, 3+4+8*4)
	for n := 0; n < 3000; n++ {
		rng.Read(data)
		checkScanMerge(t, data)
	}
}

func FuzzScanMerge(f *testing.F) {
	for _, c := range scanMergeCases {
		f.Add(c.data)
	}
	f.Fuzz(checkScanMerge)
}

// TestScanDeeperThanCursorArrayMatchesModel scans an engine holding more
// levels than Engine.Scan keeps cursors for on the stack — an active
// memtable, a snapshot still flushing and a dozen uncompacted tables with
// overlapping keys, overwrites and deletes — and compares every result
// with the map model of the same writes.
func TestScanDeeperThanCursorArrayMatchesModel(t *testing.T) {
	k := sim.NewKernel(1)
	cfg := DefaultConfig()
	cfg.MemtableBytes = 1 << 30
	cfg.CompactMinTables = 1 << 30
	cfg.SyncWAL = false
	e, _ := newTestEngine(t, k, cfg)
	model := map[kv.Key]*refRow{}
	rng := rand.New(rand.NewSource(5))
	k.Spawn("client", func(p *sim.Proc) {
		ver := kv.Version(0)
		for round := 0; round < 14; round++ {
			for i := 0; i < 120; i++ {
				key := kv.Key(fmt.Sprintf("user%04d", rng.Intn(300)))
				ver++
				if model[key] == nil {
					model[key] = newRefRow()
				}
				if rng.Intn(8) == 0 {
					e.ApplyDelete(p, key, ver)
					model[key].delete(ver)
					continue
				}
				rec := kv.Record{fmt.Sprintf("f%d", rng.Intn(4)): kv.SizedValue(10 + rng.Intn(90))}
				e.Apply(p, key, rec, ver)
				model[key].apply(rec, ver)
			}
			switch {
			case round < 12:
				e.ForceFlush()
				p.Sleep(1e9) // the flush lands: one more table
			case round == 12:
				e.ForceFlush() // still flushing while the scans below run
			}
		}
		if levels := 1 + len(e.imm) + len(e.tables); len(e.tables) != 12 || len(e.imm) != 1 || levels <= scanLevels {
			t.Fatalf("tables=%d flushing=%d: %d levels, want more than the %d cursors kept on the stack",
				len(e.tables), len(e.imm), levels, scanLevels)
		}
		var live []kv.Key
		for key, r := range model {
			if r.live() {
				live = append(live, key)
			}
		}
		slices.Sort(live)
		var buf []ScanRow
		for n := 0; n < 200; n++ {
			start := kv.Key(fmt.Sprintf("user%04d", rng.Intn(320)))
			limit := 1 + rng.Intn(60)
			i, _ := slices.BinarySearch(live, start)
			want := live[i:min(i+limit, len(live))]
			rows := e.Scan(p, start, limit)
			if len(rows) != len(want) {
				t.Fatalf("Scan(%s, %d) returned %d rows, model %d", start, limit, len(rows), len(want))
			}
			// The same scan into the buffer every earlier one has used.
			buf = e.ScanInto(p, start, limit, buf)
			if len(buf) != len(rows) {
				t.Fatalf("ScanInto(%s, %d) into a used buffer returned %d rows, Scan %d", start, limit, len(buf), len(rows))
			}
			for j, r := range rows {
				if r.Key != want[j] {
					t.Fatalf("Scan(%s, %d) row %d = %s, model %s", start, limit, j, r.Key, want[j])
				}
				model[r.Key].check(t, n, r.Row)
				if buf[j].Key != r.Key || !sameRow(buf[j].Row, r.Row) {
					t.Fatalf("ScanInto(%s, %d) row %d = %s %+v, Scan %s %+v", start, limit, j, buf[j].Key, buf[j].Row, r.Key, r.Row)
				}
			}
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
}
