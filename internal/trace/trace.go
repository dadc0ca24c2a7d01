// Package trace implements deterministic, sim-clock request tracing with
// per-phase latency decomposition.
//
// Each YCSB operation opens a root span; the database request paths record
// child spans for every phase they pass through (coordinator queueing,
// replica fan-out, WAL sync, storage service, read repair, ...). Span
// attribution follows the kernel's causal spawn tree: a process spawned
// while handling a traced op inherits the op's trace context, so work done
// on remote replicas — or asynchronously after the op acked, like
// background read repair — is still billed to the op class that caused it.
// Work with no originating op (flushes, compactions, hint replay) records
// under a synthetic "background" class.
//
// Everything is deterministic in virtual time: timestamps come from the
// sim clock and span IDs from a counter on the Tracer, so traces are
// bit-identical across runs and -parallel settings. The tracer draws
// nothing from the simulation's random streams, so attaching it does not
// change the run it records.
//
// The Tracer is a nil-gated hook: a nil *Tracer is safe to call, and call
// sites additionally guard with `if tracer != nil` (enforced by the
// hookguard analyzer) so the disabled path costs one branch and zero
// allocations.
package trace

import (
	"time"

	"cloudbench/internal/sim"
	"cloudbench/internal/stats"
)

// OpClass is the workload class a span is attributed to. The first five
// values mirror the YCSB operation types; ClassBackground collects work
// that no in-flight op caused (or that explicitly detached).
type OpClass uint8

const (
	ClassRead OpClass = iota
	ClassUpdate
	ClassInsert
	ClassScan
	ClassReadModifyWrite
	ClassBackground
	NumClasses int = iota
)

var classNames = [NumClasses]string{
	"read", "update", "insert", "scan", "rmw", "background",
}

func (c OpClass) String() string {
	if int(c) < NumClasses {
		return classNames[c]
	}
	return "unknown"
}

// Phase identifies a request stage. The taxonomy covers both databases;
// a phase that a given system never enters (e.g. fanout on an HBase read)
// simply records zero spans, which is itself a finding.
type Phase uint8

const (
	// PhaseCoordQueue is time spent queued at the coordinating node
	// before service: CPU-slot contention plus stop-the-world pauses.
	PhaseCoordQueue Phase = iota
	// PhaseCoord is coordinator/region-server CPU service.
	PhaseCoord
	// PhaseFanout is replica RPC fan-out: request and response network
	// legs between the coordinator and its replicas or memstore peers.
	PhaseFanout
	// PhaseWAL is a synchronous write-ahead-log (commit log) append.
	PhaseWAL
	// PhaseStorage is storage-engine service on a replica: memtable or
	// SSTable reads and replica-side apply CPU.
	PhaseStorage
	// PhaseDigest marks a digest mismatch detected on a quorum-style
	// read (zero-duration; the count is the signal).
	PhaseDigest
	// PhaseReadRepair is read repair: the blocking repair a mismatched
	// read performs inline, plus the background repair of the remaining
	// replicas. Recorded as one composite span per repair.
	PhaseReadRepair
	// PhaseHintReplay is hinted-handoff replay toward a recovered node.
	PhaseHintReplay
	// PhaseHDFS is one HDFS write-pipeline hop (flush/compaction output
	// replication).
	PhaseHDFS
	// PhaseAsyncJob is one asynchronous replication job delivery: an
	// object server pushing an already-acked mutation to a peer replica
	// after the client ack (objstore's ack-then-replicate path, including
	// updater retries of spilled jobs). Recorded as one composite span
	// per delivery with its internal legs muted.
	PhaseAsyncJob
	// PhaseAntiEntropy is one anti-entropy partition sync: a periodic
	// replicator exchanging per-partition version digests with a peer and
	// pushing the versions the peer misses.
	PhaseAntiEntropy
	// PhaseWAN is one cross-datacenter network leg: a mutation forward,
	// ack, or read RPC crossing a WAN link. Splitting DC hops out of the
	// generic fanout phase is what lets tracebreak attribute cross-DC
	// latency mechanically; single-DC experiments record zero wan spans.
	PhaseWAN
	NumPhases int = iota
)

var phaseNames = [NumPhases]string{
	"coord-queue", "coord", "fanout", "wal", "storage",
	"digest", "read-repair", "hint-replay", "hdfs",
	"async-job", "anti-entropy", "wan",
}

func (ph Phase) String() string {
	if int(ph) < NumPhases {
		return phaseNames[ph]
	}
	return "unknown"
}

// Span is one recorded trace interval. Root spans cover a whole op;
// child spans cover one phase and point at their root via Parent.
type Span struct {
	ID     uint64
	Parent uint64 // 0 for roots and background spans
	Class  OpClass
	Phase  Phase // meaningful for non-root spans only
	Root   bool
	Node   int   // cluster node id, -1 when client-side/unknown
	Proc   int64 // sim process id that recorded the span
	Start  sim.Time
	End    sim.Time

	measured bool
}

// Duration returns the span's length in virtual time.
func (s Span) Duration() time.Duration { return s.End.Sub(s.Start) }

// spanCtx is the per-process trace context carried opaquely by sim.Proc
// and inherited across Spawn. root is nil for background-attributed work;
// muted suppresses phase recording so composite phases (read repair, hint
// replay) are billed once by their driver instead of double-counted
// through their internal RPC and storage sub-phases.
type spanCtx struct {
	root  *Span
	muted bool
}

// classAgg accumulates one op class: the root-latency histogram plus one
// histogram per phase.
type classAgg struct {
	root   stats.Histogram
	phases [NumPhases]stats.Histogram
}

// Tracer aggregates spans per (class, phase) and optionally retains raw
// spans for export. All methods are nil-safe.
//
//simlint:hook
type Tracer struct {
	measuring    bool
	measureStart sim.Time
	classes      [NumClasses]classAgg
	keep         int
	spans        []Span
	dropped      int64
	lastID       uint64 // span IDs are 1, 2, ... in record order
}

// New returns an empty tracer.
func New() *Tracer {
	return &Tracer{}
}

// KeepSpans enables raw span retention, keeping up to n spans in record
// order (further spans are counted as dropped). Retention changes only what
// is kept: aggregates and span IDs are the same with it on or off.
func (t *Tracer) KeepSpans(n int) {
	t.keep = n
	t.spans = make([]Span, 0, n)
}

// BeginMeasure starts the measurement window: only ops whose root span
// starts at or after 'at' — and background spans starting then — are
// aggregated. Mirrors the consistency oracle's warmup handling.
func (t *Tracer) BeginMeasure(at sim.Time) {
	if t == nil {
		return
	}
	t.measuring = true
	t.measureStart = at
}

// StartOp opens a root span for an op of the given class on p.
func (t *Tracer) StartOp(p *sim.Proc, class OpClass) {
	if t == nil {
		return
	}
	now := p.Now()
	s := &Span{
		ID:    t.newID(),
		Class: class,
		Root:  true,
		Node:  -1,
		Proc:  p.ID(),
		Start: now,
	}
	s.measured = t.measuring && now >= t.measureStart
	p.SetTraceCtx(&spanCtx{root: s})
}

// EndOp closes p's root span, records its latency, and clears the
// context.
func (t *Tracer) EndOp(p *sim.Proc) {
	if t == nil {
		return
	}
	sc, _ := p.TraceCtx().(*spanCtx)
	p.SetTraceCtx(nil)
	if sc == nil || sc.root == nil {
		return
	}
	s := sc.root
	s.End = p.Now()
	if !s.measured {
		return
	}
	t.classes[s.Class].root.Record(s.End.Sub(s.Start))
	t.retain(*s)
}

// Interval records one phase span covering [start, end] on node, billed
// to the op class p's context is attributed to (background if detached).
// Muted contexts record nothing.
func (t *Tracer) Interval(p *sim.Proc, ph Phase, node int, start, end sim.Time) {
	if t == nil {
		return
	}
	class := ClassBackground
	measured := t.measuring && start >= t.measureStart
	var parent uint64
	if c := p.TraceCtx(); c != nil {
		sc := c.(*spanCtx)
		if sc.muted {
			return
		}
		if sc.root != nil {
			class = sc.root.Class
			measured = sc.root.measured
			parent = sc.root.ID
		}
	}
	// Number the span before the measurement gate, so IDs do not depend on
	// where the warmup boundary falls.
	id := t.newID()
	if !measured {
		return
	}
	t.classes[class].phases[ph].Record(end.Sub(start))
	if t.keep > 0 {
		t.retain(Span{
			ID: id, Parent: parent, Class: class, Phase: ph,
			Node: node, Proc: p.ID(), Start: start, End: end,
		})
	}
}

// Phase records a phase span from start to now.
func (t *Tracer) Phase(p *sim.Proc, ph Phase, node int, start sim.Time) {
	if t == nil {
		return
	}
	t.Interval(p, ph, node, start, p.Now())
}

// Mark records a zero-duration marker span (e.g. a digest mismatch).
func (t *Tracer) Mark(p *sim.Proc, ph Phase, node int) {
	if t == nil {
		return
	}
	now := p.Now()
	t.Interval(p, ph, node, now, now)
}

// Mute suppresses phase recording for p and everything it spawns until
// Unmute, so a composite phase's driver can record one span for the whole
// operation instead of double-counting its internal sub-phases. Returns
// the previous context for Unmute.
func (t *Tracer) Mute(p *sim.Proc) any {
	if t == nil {
		return nil
	}
	prev := p.TraceCtx()
	var root *Span
	if sc, ok := prev.(*spanCtx); ok {
		root = sc.root
	}
	p.SetTraceCtx(&spanCtx{root: root, muted: true})
	return prev
}

// Unmute restores the context saved by Mute.
func (t *Tracer) Unmute(p *sim.Proc, prev any) {
	if t == nil {
		return
	}
	p.SetTraceCtx(prev)
}

// Detach drops p's inherited op attribution: subsequent spans recorded by
// p (and processes it spawns) bill to the background class. Long-lived
// daemons spawned from request paths call this at startup.
func (t *Tracer) Detach(p *sim.Proc) {
	if t == nil {
		return
	}
	p.SetTraceCtx(nil)
}

// newID numbers the next span. A draw from the recording process's random
// stream would do as well for uniqueness, but on a client thread that is
// the stream its keys come from: the tracer would change the run it traces.
func (t *Tracer) newID() uint64 {
	t.lastID++
	return t.lastID
}

// retain appends a span to the retained set, bounded by KeepSpans.
func (t *Tracer) retain(s Span) {
	if t.keep <= 0 {
		return
	}
	if len(t.spans) >= t.keep {
		t.dropped++
		return
	}
	t.spans = append(t.spans, s)
}

// Spans returns the retained spans in record order.
func (t *Tracer) Spans() []Span { return t.spans }

// Dropped returns how many spans were discarded after the retention
// buffer filled.
func (t *Tracer) Dropped() int64 { return t.dropped }

// PhaseStat summarizes one phase within one op class.
type PhaseStat struct {
	Phase string
	Count int64
	Total time.Duration
	// Share is Total as a fraction of the class's summed root latency
	// (0 for the background class, which has no roots). Phases that
	// overlap or run in parallel can push the sum of shares past 1.
	Share    float64
	P50, P99 time.Duration
}

// ClassStat summarizes one op class: root-latency stats plus the phases
// observed inside it.
type ClassStat struct {
	Class  string
	Ops    int64
	Total  time.Duration
	Mean   time.Duration
	P99    time.Duration
	Phases []PhaseStat
}

// Phase returns the named phase's stats, or nil if it recorded nothing.
func (c *ClassStat) Phase(name string) *PhaseStat {
	for i := range c.Phases {
		if c.Phases[i].Phase == name {
			return &c.Phases[i]
		}
	}
	return nil
}

// Report is the tracer's aggregate view, in fixed class order.
type Report struct {
	Classes []ClassStat
}

// Class returns the named class's stats, or nil if it recorded nothing.
func (r Report) Class(name string) *ClassStat {
	for i := range r.Classes {
		if r.Classes[i].Class == name {
			return &r.Classes[i]
		}
	}
	return nil
}

// Report snapshots the aggregates. Classes and phases with no recorded
// spans are omitted; iteration order is fixed (class, then phase index),
// so rendering a report is deterministic.
func (t *Tracer) Report() Report {
	var r Report
	for ci := range t.classes {
		agg := &t.classes[ci]
		cs := ClassStat{
			Class: OpClass(ci).String(),
			Ops:   agg.root.Count(),
			Total: agg.root.Sum(),
			Mean:  agg.root.Mean(),
			P99:   agg.root.Percentile(99),
		}
		for pi := range agg.phases {
			lane := &agg.phases[pi]
			if lane.Count() == 0 {
				continue
			}
			ps := PhaseStat{
				Phase: Phase(pi).String(),
				Count: lane.Count(),
				Total: lane.Sum(),
				P50:   lane.Percentile(50),
				P99:   lane.Percentile(99),
			}
			if cs.Total > 0 {
				ps.Share = float64(ps.Total) / float64(cs.Total)
			}
			cs.Phases = append(cs.Phases, ps)
		}
		if cs.Ops == 0 && len(cs.Phases) == 0 {
			continue
		}
		r.Classes = append(r.Classes, cs)
	}
	return r
}
