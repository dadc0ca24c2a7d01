package kv

import (
	"fmt"
	"reflect"
	"runtime"
	"slices"
	"time"

	"cloudbench/internal/sim"
)

// T is the subset of *testing.T the conformance suite needs. Taking an
// interface keeps the testing package out of the non-test build while
// letting each backend's _test.go pass its *testing.T straight through.
type T interface {
	Helper()
	Errorf(format string, args ...any)
	Fatalf(format string, args ...any)
}

// Harness adapts one backend deployment to the shared conformance suite.
// Every database implementing Client — whatever its replication and
// consistency machinery — must present the same data-model semantics:
// partial-record merge, last-write-wins version ordering, lexicographic
// scans, and not-found discipline. The suite encodes those once instead
// of each backend re-implementing overlapping ad-hoc tests.
type Harness struct {
	// NewClient returns a fresh client session on the deployment.
	NewClient func() Client
	// Drive runs fn as a simulation process and executes the simulation
	// to completion (deployments wrap their kernel/group Run here).
	Drive func(fn func(p *sim.Proc)) error
	// Flush rotates every node's memtable into a background flush (the
	// deployment's FlushAll), so the suite can put rows into SSTables.
	Flush func()
}

// RunConformance exercises h's backend against the shared kv.Client
// contract. The driven workload is deterministic; any scheduling the
// backend does underneath (replication, repair, anti-entropy) must not
// change what a single client observes from its own writes.
func RunConformance(t T, h Harness) {
	t.Helper()
	if h.NewClient == nil || h.Drive == nil || h.Flush == nil {
		t.Fatalf("kv conformance: Harness needs NewClient, Drive and Flush")
		return
	}
	c := h.NewClient()
	err := h.Drive(func(p *sim.Proc) {
		conformRead := func(key Key, fields []string) (Record, error) {
			return c.Read(p, key, fields)
		}

		// Not-found discipline: a never-written key is ErrNotFound.
		if _, err := conformRead("conf-missing", nil); err != ErrNotFound {
			t.Errorf("read of missing key: err=%v, want ErrNotFound", err)
		}

		// Full-record insert reads back intact, and field projection
		// restricts without dropping present fields.
		full := Record{"f0": ByteValue([]byte("a0")), "f1": ByteValue([]byte("b0")), "f2": SizedValue(64)}
		if err := c.Insert(p, "conf-a", full); err != nil {
			t.Fatalf("insert: %v", err)
		}
		got, err := conformRead("conf-a", nil)
		if err != nil {
			t.Fatalf("read after insert: %v", err)
		}
		if len(got) != 3 || string(got["f0"].Data) != "a0" || string(got["f1"].Data) != "b0" {
			t.Errorf("read after insert: got %v", got)
		}
		proj, err := conformRead("conf-a", []string{"f1"})
		if err != nil || len(proj) != 1 || string(proj["f1"].Data) != "b0" {
			t.Errorf("projected read: got %v err=%v", proj, err)
		}

		// Partial-record merge: updating one field leaves the others at
		// their newest prior values.
		partial := Record{"f1": ByteValue([]byte("b1"))}
		if err := c.Update(p, "conf-a", partial); err != nil {
			t.Fatalf("partial update: %v", err)
		}
		got, err = conformRead("conf-a", nil)
		if err != nil {
			t.Fatalf("read after partial update: %v", err)
		}
		if string(got["f0"].Data) != "a0" || string(got["f1"].Data) != "b1" {
			t.Errorf("partial merge: got f0=%q f1=%q, want a0/b1", got["f0"].Data, got["f1"].Data)
		}

		// Version ordering: the later of two writes to the same field
		// wins (last-write-wins as the client issued them).
		if err := c.Update(p, "conf-a", Record{"f1": ByteValue([]byte("b2"))}); err != nil {
			t.Fatalf("second update: %v", err)
		}
		got, err = conformRead("conf-a", nil)
		if err != nil || string(got["f1"].Data) != "b2" {
			t.Errorf("last-write-wins: got f1=%q err=%v, want b2", got["f1"].Data, err)
		}

		// Scan ordering: lexicographic by key, limit honored, live rows
		// only.
		for i := 0; i < 5; i++ {
			key := Key(fmt.Sprintf("conf-s%02d", i))
			if err := c.Insert(p, key, Record{"f0": SizedValue(16)}); err != nil {
				t.Fatalf("scan insert %s: %v", key, err)
			}
		}
		rows, err := c.Scan(p, "conf-s", 4, nil)
		if err != nil {
			t.Fatalf("scan: %v", err)
		}
		if len(rows) != 4 {
			t.Errorf("scan limit: got %d rows, want 4", len(rows))
		}
		for i, r := range rows {
			want := Key(fmt.Sprintf("conf-s%02d", i))
			if r.Key != want {
				t.Errorf("scan order: row %d key %q, want %q", i, r.Key, want)
			}
		}

		// Delete discipline: a deleted key is ErrNotFound and leaves the
		// scan range.
		if err := c.Delete(p, "conf-s00"); err != nil {
			t.Fatalf("delete: %v", err)
		}
		if _, err := conformRead("conf-s00", nil); err != ErrNotFound {
			t.Errorf("read after delete: err=%v, want ErrNotFound", err)
		}
		rows, err = c.Scan(p, "conf-s", 5, nil)
		if err != nil || len(rows) != 4 || rows[0].Key != "conf-s01" {
			t.Errorf("scan after delete: rows=%v err=%v, want 4 rows from conf-s01", rows, err)
		}

		// Re-insert after delete resurrects the key with the new value.
		if err := c.Insert(p, "conf-s00", Record{"f0": ByteValue([]byte("back"))}); err != nil {
			t.Fatalf("re-insert: %v", err)
		}
		got, err = conformRead("conf-s00", nil)
		if err != nil || string(got["f0"].Data) != "back" {
			t.Errorf("read after re-insert: got %v err=%v", got, err)
		}

		// Ownership: what Read and Scan return is the client's, valid until
		// its next Read or Scan, which refills it. A Clone (a copy of the
		// slice) taken before that survives; the record (the slice) itself
		// then shows the second call's answer.
		first, err := conformRead("conf-a", nil)
		if err != nil {
			t.Fatalf("ownership read: %v", err)
		}
		keptRec := first.Clone()
		second, err := conformRead("conf-s00", []string{"f0"})
		if err != nil || len(second) != 1 || string(second["f0"].Data) != "back" {
			t.Errorf("second read: got %v err=%v", second, err)
		}
		if len(keptRec) != 3 || string(keptRec["f0"].Data) != "a0" || string(keptRec["f1"].Data) != "b2" || keptRec["f2"].Bytes() != 64 {
			t.Errorf("a Clone taken before the next Read did not survive it: %v", keptRec)
		}
		if !reflect.DeepEqual(first, second) {
			t.Errorf("the record Read returned is not the one the next Read filled: %v, second read %v", first, second)
		}
		firstRows, err := c.Scan(p, "conf-s", 4, nil)
		if err != nil || len(firstRows) != 4 {
			t.Fatalf("ownership scan: %d rows, err=%v", len(firstRows), err)
		}
		keptRows := slices.Clone(firstRows)
		secondRows, err := c.Scan(p, "conf-s02", 2, nil)
		if err != nil || len(secondRows) != 2 || secondRows[0].Key != "conf-s02" || secondRows[1].Key != "conf-s03" {
			t.Errorf("second scan: rows=%v err=%v", secondRows, err)
		}
		for i, r := range keptRows {
			if want := Key(fmt.Sprintf("conf-s%02d", i)); r.Key != want || len(r.Record()) != 1 {
				t.Errorf("a copy of the slice taken before the next Scan did not survive it: row %d is %s %v, want %s", i, r.Key, r.Record(), want)
			}
		}
		if !reflect.DeepEqual(firstRows[:2], secondRows) {
			t.Errorf("the slice Scan returned is not the one the next Scan filled: %v, second scan %v", firstRows[:2], secondRows)
		}

		// Snapshot discipline: a scan result is a view of the rows as of
		// the scan, not of the keys. Overwrite and delete the scanned
		// keys, flush, and a kept result still shows the scanned values
		// and sizes — both when the scan read rows still in memtables
		// (its views must be private copies) and when it read them from
		// flushed tables (its views share the stored rows).
		old := Record{"f0": ByteValue([]byte("old")), "f1": SizedValue(32)}
		snapshot := func(prefix Key, flushFirst bool, fields []string) {
			keys := make([]Key, 4)
			for i := range keys {
				keys[i] = prefix + Key(fmt.Sprintf("%02d", i))
				if err := c.Insert(p, keys[i], old); err != nil {
					t.Fatalf("snapshot insert %s: %v", keys[i], err)
				}
			}
			if flushFirst {
				h.Flush()
				p.Sleep(time.Second)
			}
			kept, err := c.Scan(p, prefix, len(keys), fields)
			if err != nil || len(kept) != len(keys) {
				t.Fatalf("snapshot scan %s: %d rows, err=%v", prefix, len(kept), err)
			}
			for i, key := range keys {
				if i%2 == 0 {
					err = c.Update(p, key, Record{"f0": ByteValue([]byte("rewritten")), "f2": SizedValue(8)})
				} else {
					err = c.Delete(p, key)
				}
				if err != nil {
					t.Fatalf("snapshot overwrite %s: %v", key, err)
				}
			}
			h.Flush()
			p.Sleep(time.Second)
			want := old.Project(fields)
			for i, r := range kept {
				if rec := r.Record(); r.Key != keys[i] || !reflect.DeepEqual(rec, want) || r.Bytes() != want.Bytes() {
					t.Errorf("kept scan row %s changed under later writes: %v (%d bytes), want %v (%d bytes)",
						r.Key, rec, r.Bytes(), want, want.Bytes())
				}
			}
			now, err := c.Scan(p, prefix, len(keys), nil)
			if err != nil || len(now) != 2 || now[1].Key != keys[2] || string(now[1].Record()["f0"].Data) != "rewritten" {
				t.Errorf("scan %s after overwrite: rows=%v err=%v, want the two rewritten keys", prefix, now, err)
			}
		}
		snapshot("conf-v", false, nil)
		snapshot("conf-w", true, []string{"f0", "f0", "nope"})

		// Written records are the caller's, shared and read-only: after
		// replication, flushes and the reads above, what was handed to
		// Insert and Update is what the caller still holds.
		if want := (Record{"f0": ByteValue([]byte("a0")), "f1": ByteValue([]byte("b0")), "f2": SizedValue(64)}); !reflect.DeepEqual(full, want) {
			t.Errorf("Insert changed the caller's record: %v, want %v", full, want)
		}
		if want := (Record{"f1": ByteValue([]byte("b1"))}); !reflect.DeepEqual(partial, want) {
			t.Errorf("Update changed the caller's record: %v, want %v", partial, want)
		}
		if want := (Record{"f0": ByteValue([]byte("old")), "f1": SizedValue(32)}); !reflect.DeepEqual(old, want) {
			t.Errorf("Insert of one record under eight keys changed it: %v, want %v", old, want)
		}
	})
	if err != nil {
		t.Fatalf("conformance drive: %v", err)
	}
}

// RunScanAllocGate is the allocation fence of the copy-free scan path,
// run by every backend on an idle deployment at its usual replication:
// with the scanned rows flushed and the replicas in sync, the host
// allocations of one steady-state Client.Scan are the same at limit 5, 50
// and 400 — nothing per returned row — and at most scanAllocBound, however
// many hosts the scan fans out to.
func RunScanAllocGate(t T, h Harness) {
	t.Helper()
	if h.NewClient == nil || h.Drive == nil || h.Flush == nil {
		t.Fatalf("kv conformance: Harness needs NewClient, Drive and Flush")
		return
	}
	c := h.NewClient()
	err := h.Drive(func(p *sim.Proc) {
		rec := Record{}
		for f := 0; f < 10; f++ {
			rec[fmt.Sprintf("field%d", f)] = SizedValue(100)
		}
		for i := 0; i < 500; i++ {
			if err := c.Insert(p, Key(fmt.Sprintf("user%08d", i)), rec); err != nil {
				t.Fatalf("insert %d: %v", i, err)
			}
		}
		p.Sleep(5 * time.Second) // replication settles
		h.Flush()
		p.Sleep(5 * time.Second)
		// One OS thread, as testing.AllocsPerRun does: the counter is
		// process-wide and the scan's legs run on other goroutines.
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
		var perCall []uint64
		for _, limit := range []int{5, 50, 400} {
			scan := func() {
				rows, err := c.Scan(p, "user00000010", limit, nil)
				if err != nil || len(rows) != limit || rows[limit-1].Bytes() != rec.Bytes() {
					t.Fatalf("scan limit %d: %d rows, err=%v", limit, len(rows), err)
				}
			}
			scan() // warm the block caches
			const runs = 20
			before := mallocs()
			for i := 0; i < runs; i++ {
				scan()
			}
			perCall = append(perCall, (mallocs()-before)/runs)
		}
		if slices.Max(perCall) > slices.Min(perCall)+1 {
			t.Errorf("Client.Scan allocations depend on the rows returned: %v per call at limit 5, 50, 400", perCall)
		}
		if slices.Max(perCall) > scanAllocBound {
			t.Errorf("Client.Scan allocates %v per call at limit 5, 50, 400, want at most %d: the scan's legs, buffers and result are pooled, whatever the number of hosts", perCall, scanAllocBound)
		}
	})
	if err != nil {
		t.Fatalf("scan alloc gate drive: %v", err)
	}
}

// scanAllocBound is the gate's measured count plus one: 3 on the six-host
// Cassandra and four-server object-store harnesses — pool growth its one
// warm-up call has not finished; 20,000 scans in a row allocate nothing — and
// 0 on HBase. A leg closure and a result slice per live host would be 8 and
// more.
const scanAllocBound = 4

func mallocs() uint64 {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.Mallocs
}
