package kv

import (
	"slices"
	"testing"
	"testing/quick"
)

func TestValueBytes(t *testing.T) {
	if ByteValue([]byte("hello")).Bytes() != 5 {
		t.Fatal("ByteValue size")
	}
	if SizedValue(1000).Bytes() != 1000 {
		t.Fatal("SizedValue size")
	}
	if (Value{Data: []byte("xy"), Size: 100}).Bytes() != 100 {
		t.Fatal("explicit Size should win")
	}
}

func TestRecordBytesCountsFieldOverhead(t *testing.T) {
	r := Record{"f1": SizedValue(10)}
	if got := r.Bytes(); got != 2+2+10 {
		t.Fatalf("bytes = %d", got)
	}
}

func TestRecordProject(t *testing.T) {
	r := Record{"a": SizedValue(1), "b": SizedValue(2), "c": SizedValue(3)}
	p := r.Project([]string{"a", "c", "zz"})
	if len(p) != 2 || p["a"].Bytes() != 1 || p["c"].Bytes() != 3 {
		t.Fatalf("project = %v", p)
	}
	all := r.Project(nil)
	if len(all) != 3 {
		t.Fatalf("nil project = %v", all)
	}
	all["a"] = SizedValue(99)
	if r["a"].Bytes() == 99 {
		t.Fatal("project must copy")
	}
}

func TestRecordMergeOlderPrefersNewer(t *testing.T) {
	newer := Record{"a": SizedValue(1)}
	older := Record{"a": SizedValue(100), "b": SizedValue(2)}
	m := newer.MergeOlder(older)
	if m["a"].Bytes() != 1 || m["b"].Bytes() != 2 {
		t.Fatalf("merge = %v", m)
	}
}

func TestFieldNamesSorted(t *testing.T) {
	r := Record{"z": {}, "a": {}, "m": {}}
	names := r.FieldNames()
	if len(names) != 3 || names[0] != "a" || names[2] != "z" {
		t.Fatalf("names = %v", names)
	}
}

func TestConsistencyRequired(t *testing.T) {
	cases := []struct {
		cl   ConsistencyLevel
		rf   int
		want int
	}{
		{One, 1, 1}, {One, 3, 1}, {One, 6, 1},
		{Two, 3, 2}, {Two, 1, 1},
		{Three, 6, 3}, {Three, 2, 2},
		{Quorum, 1, 1}, {Quorum, 2, 2}, {Quorum, 3, 2}, {Quorum, 4, 3}, {Quorum, 5, 3}, {Quorum, 6, 4},
		{All, 1, 1}, {All, 3, 3}, {All, 6, 6},
	}
	for _, c := range cases {
		if got := c.cl.Required(c.rf); got != c.want {
			t.Errorf("%v.Required(%d) = %d, want %d", c.cl, c.rf, got, c.want)
		}
	}
}

func TestQuorumIntersectsWithItself(t *testing.T) {
	// Property: for any rf ≥ 1, two quorums intersect: 2*Required > rf.
	// This is the invariant behind QUORUM read-your-writes.
	f := func(raw uint8) bool {
		rf := int(raw%16) + 1
		return 2*Quorum.Required(rf) > rf
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestReadAllWriteOneIntersects(t *testing.T) {
	// Property: W=ALL with R=ONE also intersects: Required(All)+Required(One) > rf.
	f := func(raw uint8) bool {
		rf := int(raw%16) + 1
		return All.Required(rf)+One.Required(rf) > rf
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestConsistencyString(t *testing.T) {
	for cl, want := range map[ConsistencyLevel]string{
		One: "ONE", Two: "TWO", Three: "THREE", Quorum: "QUORUM", All: "ALL",
	} {
		if cl.String() != want {
			t.Errorf("%d.String() = %s", int(cl), cl.String())
		}
	}
	if ConsistencyLevel(42).String() != "ConsistencyLevel(42)" {
		t.Error("unknown level string")
	}
}

// recRow is a stored row for view tests: a Record behind the Projector
// interface, counting how often it is materialised.
type recRow struct {
	rec      Record
	projects int
}

func (r *recRow) Project(fields []string) Record {
	r.projects++
	return r.rec.Project(fields)
}

func (r *recRow) ProjectedBytes(fields []string) int {
	n := 0
	for f, v := range r.rec {
		if len(fields) == 0 || slices.Contains(fields, f) {
			n += FieldBytes(f, v)
		}
	}
	return n
}

func TestKVIsALazyView(t *testing.T) {
	row := &recRow{rec: Record{"a": SizedValue(1), "b": SizedValue(2)}}
	e := View("k", row, []string{"b"})
	if e.Key != "k" || e.Bytes() != 1+2+2 || row.projects != 0 {
		t.Fatalf("view = %+v, %d bytes after %d materialisations; want key k, 5 bytes, none", e, e.Bytes(), row.projects)
	}
	rec := e.Record()
	if len(rec) != 1 || rec["b"].Bytes() != 2 || row.projects != 1 {
		t.Fatalf("Record() = %v after %d materialisations", rec, row.projects)
	}
	rec["b"] = SizedValue(99)
	if again := e.Record(); again["b"].Bytes() != 2 {
		t.Fatalf("a caller's edit of one Record() reached the next: %v", again)
	}
	// What `make([]KV, n)` holds: a key-only result over no row.
	var zero KV
	if zero.Record() != nil || zero.Bytes() != 0 {
		t.Fatalf("zero KV = %v, %d bytes; want nil, 0", zero.Record(), zero.Bytes())
	}
}

func TestViewAndBytesZeroAlloc(t *testing.T) {
	row := &recRow{rec: Record{"a": SizedValue(1), "b": SizedValue(2)}}
	fields := []string{"b"}
	out := make([]KV, 0, 1)
	total := 0
	allocs := testing.AllocsPerRun(1000, func() {
		out = append(out[:0], View("k", row, fields))
		total += out[0].Bytes()
	})
	if allocs != 0 || total == 0 {
		t.Errorf("View + Bytes: %.1f allocs/op, want 0", allocs)
	}
}
