// Package kv defines the data model and client interface shared by the
// HBase-like and Cassandra-like databases: records of named fields, row
// keys, versions for last-write-wins reconciliation, and the tunable
// consistency levels of the paper.
package kv

import (
	"errors"
	"fmt"
	"sort"
)

// Key is a row key. Keys order lexicographically, which is the physical
// order used for scans.
type Key string

// Version is a logical timestamp used for last-write-wins reconciliation
// between replicas. Higher wins; ties break toward the coordinator that
// assigned the version later (callers guarantee uniqueness).
type Version int64

// Value is one field value. Data optionally carries real payload bytes
// (examples use this); Size declares the serialized size in bytes used by
// the network and disk cost models, so benchmarks can model 1 KB fields
// without materializing gigabytes of payload. If Size is zero, len(Data)
// is used.
type Value struct {
	Data []byte
	Size int
}

// Bytes returns the value's modeled wire size.
func (v Value) Bytes() int {
	if v.Size > 0 {
		return v.Size
	}
	return len(v.Data)
}

// ByteValue returns a Value carrying real payload bytes.
func ByteValue(b []byte) Value { return Value{Data: b} }

// SizedValue returns a Value of the given modeled size with no payload.
func SizedValue(n int) Value { return Value{Size: n} }

// Record is a row: a set of named field values. A Record used as a write
// may be partial (only the written fields); reads merge partial writes by
// version, newest field wins.
type Record map[string]Value

// FieldBytes returns the modeled serialized size of one named field: the
// value plus its name and a small per-field overhead.
func FieldBytes(name string, v Value) int { return len(name) + 2 + v.Bytes() }

// Bytes returns the modeled serialized size of the record, the sum of its
// FieldBytes.
func (r Record) Bytes() int {
	n := 0
	for f, v := range r {
		n += FieldBytes(f, v)
	}
	return n
}

// Clone returns a shallow copy of the record (values are immutable by
// convention).
func (r Record) Clone() Record {
	c := make(Record, len(r))
	for f, v := range r {
		c[f] = v
	}
	return c
}

// Project returns a copy of the record restricted to the given fields; a
// nil or empty field list selects all fields.
func (r Record) Project(fields []string) Record {
	if len(fields) == 0 {
		return r.Clone()
	}
	c := make(Record, len(fields))
	for _, f := range fields {
		if v, ok := r[f]; ok {
			c[f] = v
		}
	}
	return c
}

// FieldNames returns the record's field names in sorted order.
func (r Record) FieldNames() []string {
	names := make([]string, 0, len(r))
	for f := range r {
		names = append(names, f)
	}
	sort.Strings(names)
	return names
}

// MergeOlder fills fields missing from r with fields from older, modeling
// the newest-wins merge of partial writes. It mutates and returns r.
func (r Record) MergeOlder(older Record) Record {
	for f, v := range older {
		if _, ok := r[f]; !ok {
			r[f] = v
		}
	}
	return r
}

// ConsistencyLevel selects how many replicas must acknowledge an operation
// before the coordinator responds, exactly as in Cassandra.
type ConsistencyLevel int

// Consistency levels. One, Two and Three are absolute counts; Quorum is a
// majority of the replication factor; All is every replica. LocalQuorum
// is a majority of the replication factor of the coordinator's zone (data
// center), down replicas counted — the level multi-datacenter deployments
// use to avoid wide-area waits. EachQuorum demands such a majority in
// *every* data center, the strongest cross-DC level Cassandra offers short
// of ALL. A single rack is one data center, so there both are exactly
// Quorum.
const (
	One ConsistencyLevel = iota + 1
	Two
	Three
	Quorum
	All
	LocalQuorum
	EachQuorum
)

// String returns the Cassandra-style name of the level.
func (c ConsistencyLevel) String() string {
	switch c {
	case One:
		return "ONE"
	case Two:
		return "TWO"
	case Three:
		return "THREE"
	case Quorum:
		return "QUORUM"
	case All:
		return "ALL"
	case LocalQuorum:
		return "LOCAL_QUORUM"
	case EachQuorum:
		return "EACH_QUORUM"
	default:
		return fmt.Sprintf("ConsistencyLevel(%d)", int(c))
	}
}

// Required returns the number of replica acknowledgements the level
// demands at replication factor rf. The result is clamped to [1, rf].
func (c ConsistencyLevel) Required(rf int) int {
	var n int
	switch c {
	case One:
		n = 1
	case Two:
		n = 2
	case Three:
		n = 3
	case Quorum, LocalQuorum, EachQuorum:
		// LocalQuorum and EachQuorum without topology context (the caller
		// applies the per-DC math against the zoned replica sets first)
		// are a plain majority.
		n = rf/2 + 1
	case All:
		n = rf
	default:
		n = 1
	}
	if n < 1 {
		n = 1
	}
	if n > rf {
		n = rf
	}
	return n
}

// Errors shared by database clients.
var (
	// ErrNotFound reports that no record exists at the requested key.
	ErrNotFound = errors.New("kv: key not found")
	// ErrUnavailable reports that too few replicas were reachable to
	// satisfy the requested consistency level.
	ErrUnavailable = errors.New("kv: not enough replicas available")
	// ErrTimeout reports that the operation did not complete within the
	// coordinator's deadline.
	ErrTimeout = errors.New("kv: operation timed out")
)

// Projector is the stored row behind a scan result. kv cannot import the
// storage package (storage is built on kv's types), so KV holds its row
// through this interface; *storage.Row is the implementation.
type Projector interface {
	// Project materialises the row's live cells restricted to fields
	// (nil or empty = all); nil when the row is fully dead.
	Project(fields []string) Record
	// ProjectedBytes returns Project(fields).Bytes() without building
	// the record.
	ProjectedBytes(fields []string) int
}

// KV is one scan result: a key and a read-only view of its row as of the
// scan. The view aliases a row no writer can change — an SSTable's or
// flushing memtable's frozen row, or a copy the read made — so it keeps
// showing the scanned values however the key is overwritten afterwards,
// and a scan allocates nothing per returned row. The zero KV (and one with
// only Key set) views no row: a nil Record of zero Bytes.
type KV struct {
	Key    Key
	row    Projector
	fields []string
}

// View returns the scan result for key: row restricted to fields (nil or
// empty = all). The view keeps fields without copying it; the caller must
// not modify the slice while the result is in use.
func View(key Key, row Projector, fields []string) KV {
	return KV{Key: key, row: row, fields: fields}
}

// Record materialises the viewed row as a fresh Record, built on demand
// because most scan consumers (the YCSB driver among them) only count
// rows and charge bytes.
func (e KV) Record() Record {
	if e.row == nil {
		return nil
	}
	return e.row.Project(e.fields)
}

// Bytes returns Record().Bytes(), the modeled response size of the
// result, without building the record.
func (e KV) Bytes() int {
	if e.row == nil {
		return 0
	}
	return e.row.ProjectedBytes(e.fields)
}
