package ycsb

import (
	"fmt"
	"math/rand"
	"strconv"

	"cloudbench/internal/kv"
)

// OpType enumerates the YCSB core operations.
type OpType int

// Operation kinds.
const (
	OpRead OpType = iota
	OpUpdate
	OpInsert
	OpScan
	OpReadModifyWrite
)

// String names the operation.
func (o OpType) String() string {
	switch o {
	case OpRead:
		return "READ"
	case OpUpdate:
		return "UPDATE"
	case OpInsert:
		return "INSERT"
	case OpScan:
		return "SCAN"
	case OpReadModifyWrite:
		return "RMW"
	default:
		return fmt.Sprintf("OpType(%d)", int(o))
	}
}

// Distribution selects the request key distribution.
type Distribution string

// Supported request distributions.
const (
	DistUniform Distribution = "uniform"
	DistZipfian Distribution = "zipfian"
	DistLatest  Distribution = "latest"
)

// Spec is a workload definition, mirroring a YCSB workload properties
// file.
type Spec struct {
	Name    string
	Usage   string // the paper's "typical usage" column
	Comment string

	RecordCount int64
	FieldCount  int
	FieldLength int // bytes per field (modeled)

	ReadProportion   float64
	UpdateProportion float64
	InsertProportion float64
	ScanProportion   float64
	RMWProportion    float64

	RequestDistribution Distribution
	MaxScanLength       int
	WriteAllFields      bool

	// KeyPad is the zero-padded width of key numbers; the key space is
	// [0, 10^KeyPad).
	KeyPad int
}

// keyMultiplier is coprime with every power of ten, so n*keyMultiplier mod
// 10^KeyPad is a bijection: ordered key names get hash-scattered placement
// (the role of YCSB's hashed key names) while staying fixed-width sortable.
const keyMultiplier = 2654435761

// keySpace returns the size of the key-number space.
func (s *Spec) keySpace() int64 {
	n := int64(1)
	for i := 0; i < s.KeyPad; i++ {
		n *= 10
	}
	return n
}

// KeyFor maps a logical key number to its row key.
func (s *Spec) KeyFor(n int64) kv.Key {
	scattered := (n % s.keySpace()) * keyMultiplier % s.keySpace()
	return formatKey(s.KeyPad, scattered)
}

// formatKey renders "user" + v zero-padded to pad digits, byte-for-byte
// what fmt.Sprintf("user%0*d", pad, v) prints, built in a stack buffer so
// the key string is the only allocation of a generated operation's key.
func formatKey(pad int, v int64) kv.Key {
	var buf [32]byte
	var num [20]byte
	b := append(buf[:0], "user"...)
	digits := strconv.AppendInt(num[:0], v, 10)
	if v < 0 { // the sign counts toward the width and precedes the zeros
		b, digits, pad = append(b, '-'), digits[1:], pad-1
	}
	for i := len(digits); i < pad; i++ {
		b = append(b, '0')
	}
	return kv.Key(append(b, digits...))
}

// SplitPoints returns n-1 keys that divide the key space into n equal
// key ranges; used to pre-split HBase regions. These are data-placement
// splits within one simulated cluster, not execution shards.
func (s *Spec) SplitPoints(n int) []kv.Key {
	var out []kv.Key
	space := s.keySpace()
	for i := 1; i < n; i++ {
		out = append(out, formatKey(s.KeyPad, space/int64(n)*int64(i)))
	}
	return out
}

// Op is one generated operation.
type Op struct {
	Type   OpType
	Key    kv.Key
	Keynum int64 // logical key number; inserts acknowledge it
	// Record is what a write writes. It is shared — every operation of a
	// Workload that writes the same fields carries the same map — and
	// read-only: neither the caller nor the kv.Client it is handed to may
	// modify it.
	Record  kv.Record
	ScanLen int
}

// Workload turns a Spec into an operation stream. One Workload is shared
// by all client threads of a run (the simulation kernel serializes
// access).
type Workload struct {
	Spec       Spec
	keyChooser Generator
	opChooser  Discrete
	scanLen    Uniform
	inserted   *AcknowledgedCounter
	fieldNames []string
	// keys[n] is Spec.KeyFor(n) once some operation has asked for it ("":
	// not yet), over the loaded records [0, RecordCount).
	keys []kv.Key
	// The records writes carry, built once: every field, and one per field
	// name (parallel to fieldNames). Field values are modeled sizes, so all
	// writes of the same fields are the same record.
	allFields kv.Record
	oneField  []kv.Record
}

// NewWorkload prepares generators for the spec. The insert counter starts
// at RecordCount: the load phase inserts [0, RecordCount) and the run
// phase appends beyond it.
func NewWorkload(spec Spec) *Workload {
	w := &Workload{
		Spec:     spec,
		inserted: NewAcknowledgedCounter(spec.RecordCount),
		keys:     make([]kv.Key, max(spec.RecordCount, 0)),
	}
	switch spec.RequestDistribution {
	case DistUniform:
		w.keyChooser = Uniform{Lo: 0, Hi: spec.RecordCount - 1}
	case DistLatest:
		w.keyChooser = NewLatest(w.inserted)
	default: // zipfian
		w.keyChooser = NewScrambledZipfian(spec.RecordCount)
	}
	w.opChooser.Add(spec.ReadProportion, int64(OpRead))
	w.opChooser.Add(spec.UpdateProportion, int64(OpUpdate))
	w.opChooser.Add(spec.InsertProportion, int64(OpInsert))
	w.opChooser.Add(spec.ScanProportion, int64(OpScan))
	w.opChooser.Add(spec.RMWProportion, int64(OpReadModifyWrite))
	maxScan := spec.MaxScanLength
	if maxScan < 1 {
		maxScan = 1
	}
	w.scanLen = Uniform{Lo: 1, Hi: int64(maxScan)}
	w.allFields = make(kv.Record, spec.FieldCount)
	for i := 0; i < spec.FieldCount; i++ {
		f, v := fmt.Sprintf("field%d", i), kv.SizedValue(spec.FieldLength)
		w.fieldNames = append(w.fieldNames, f)
		w.allFields[f] = v
		w.oneField = append(w.oneField, kv.Record{f: v})
	}
	return w
}

// keyFor is Spec.KeyFor through the table of keys already built: a loaded
// record's key string is made once per Workload, a run-phase insert's (past
// RecordCount) each time.
func (w *Workload) keyFor(n int64) kv.Key {
	if n < 0 || n >= int64(len(w.keys)) {
		return w.Spec.KeyFor(n)
	}
	if w.keys[n] == "" {
		w.keys[n] = w.Spec.KeyFor(n)
	}
	return w.keys[n]
}

// Inserted returns the count of records assumed present: the load base
// plus every acknowledged run-phase insert.
func (w *Workload) Inserted() int64 { return w.inserted.LastAcked() + 1 }

// Ack records that op (an insert) completed, unblocking the latest
// distribution up to it. Non-insert ops are ignored.
func (w *Workload) Ack(op Op) {
	if op.Type == OpInsert {
		w.inserted.Ack(op.Keynum)
	}
}

// nextKeynum picks an existing key number, clamped to what has been
// inserted so far.
func (w *Workload) nextKeynum(rng *rand.Rand) int64 {
	n := w.keyChooser.Next(rng)
	limit := w.Inserted()
	if limit < 1 {
		limit = 1
	}
	if n >= limit {
		n %= limit
	}
	if n < 0 {
		n = 0
	}
	return n
}

// buildValues picks the record of all fields (inserts) or of one random
// field (updates with WriteAllFields=false): shared and read-only, see
// Op.Record.
func (w *Workload) buildValues(rng *rand.Rand, all bool) kv.Record {
	if all {
		return w.allFields
	}
	return w.oneField[rng.Intn(len(w.fieldNames))]
}

// LoadOp returns the insert for load-phase record n.
func (w *Workload) LoadOp(rng *rand.Rand, n int64) Op {
	return Op{
		Type:   OpInsert,
		Key:    w.keyFor(n),
		Record: w.buildValues(rng, true),
	}
}

// NextOp generates the next transaction-phase operation.
func (w *Workload) NextOp(rng *rand.Rand) Op {
	t := OpType(w.opChooser.Next(rng))
	switch t {
	case OpInsert:
		n := w.inserted.Next(nil)
		return Op{Type: OpInsert, Key: w.keyFor(n), Keynum: n, Record: w.buildValues(rng, true)}
	case OpUpdate:
		return Op{
			Type:   OpUpdate,
			Key:    w.keyFor(w.nextKeynum(rng)),
			Record: w.buildValues(rng, w.Spec.WriteAllFields),
		}
	case OpScan:
		return Op{
			Type:    OpScan,
			Key:     w.keyFor(w.nextKeynum(rng)),
			ScanLen: int(w.scanLen.Next(rng)),
		}
	case OpReadModifyWrite:
		return Op{
			Type:   OpReadModifyWrite,
			Key:    w.keyFor(w.nextKeynum(rng)),
			Record: w.buildValues(rng, w.Spec.WriteAllFields),
		}
	default:
		return Op{Type: OpRead, Key: w.keyFor(w.nextKeynum(rng))}
	}
}
