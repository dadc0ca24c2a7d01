// Package replica is the half of a cloud serving database that HBase,
// Cassandra and the object store share. §2 of the paper describes them as
// the same thing below the replication policy — a commit log, a memtable and
// store files on a node with a CPU, a disk and a NIC — differing in who is
// told about a write and when. The policy stays in each backend; what a
// node does for it is written here once: how a request's CPU is billed and
// traced, how a WAL sync becomes a span, how a mutation is applied and
// reported to the oracle, how a row is fetched and a range scanned from one
// host, and — for the two last-write-wins stores — how replica answers
// reconcile and how a scan scatters over every live host.
package replica

import (
	"time"

	"cloudbench/internal/cluster"
	"cloudbench/internal/consistency"
	"cloudbench/internal/kv"
	"cloudbench/internal/sim"
	"cloudbench/internal/storage"
	"cloudbench/internal/trace"
)

// RequestOverhead is the fixed per-message overhead in bytes: what a request
// or an acknowledgement costs on the wire beyond its key and record.
const RequestOverhead = 64

// Env is the state one deployment's hosts share; each backend's DB embeds
// it. Tracer and Oracle are nil unless attached: every call site is gated
// on a nil check, so the paper's performance experiments pay nothing for
// the instrumentation.
type Env struct {
	K *sim.Kernel
	// Cluster supplies the service times; nil only over no nodes.
	Cluster *cluster.Cluster
	Tracer  *trace.Tracer
	Oracle  *consistency.Oracle

	hosts       []*Host
	nextVersion kv.Version
	scanOps     []*scanOp // free list; one kernel runs one process at a time
}

// Host is one storage engine on one node: a Cassandra replica, an object
// server, an HBase region on its region server.
type Host struct {
	Node   *cluster.Node
	Engine *storage.Engine
	env    *Env
}

// Adopt makes h the host of engine on node, under e. Hosts keep the order
// they were adopted in: ScanAll's legs, FlushAll and Engines walk it.
func (e *Env) Adopt(h *Host, node *cluster.Node, engine *storage.Engine) {
	*h = Host{Node: node, Engine: engine, env: e}
	e.hosts = append(e.hosts, h)
}

// SetOracle attaches a consistency oracle observing every write lifecycle
// event and read observation; nil (the default) runs unobserved.
func (e *Env) SetOracle(o *consistency.Oracle) { e.Oracle = o }

// SetTracer attaches a request tracer recording per-phase spans, each
// host's synchronous WAL appends among them; nil (the default) runs
// untraced.
func (e *Env) SetTracer(t *trace.Tracer) {
	e.Tracer = t
	for _, h := range e.hosts {
		if t == nil {
			h.Engine.OnWALSync = nil
			continue
		}
		node := h.Node.ID
		h.Engine.OnWALSync = func(p *sim.Proc, start sim.Time) {
			t.Phase(p, trace.PhaseWAL, node, start)
		}
	}
}

// FlushAll forces every host's memtable to flush (between benchmark
// phases).
func (e *Env) FlushAll() {
	for _, h := range e.hosts {
		h.Engine.ForceFlush()
	}
}

// Engines returns the per-host engines for metric collection.
func (e *Env) Engines() []*storage.Engine {
	es := make([]*storage.Engine, len(e.hosts))
	for i, h := range e.hosts {
		es[i] = h.Engine
	}
	return es
}

// Version issues the next write timestamp. One counter per deployment
// makes versions unique; Reconcile does not depend on it.
func (e *Env) Version() kv.Version {
	e.nextVersion++
	return kv.Version(e.K.Now()) + e.nextVersion
}

// MutationSize models the wire size of a mutation.
func (e *Env) MutationSize(key kv.Key, rec kv.Record) int {
	return rec.Bytes() + len(key) + RequestOverhead
}

// Serve charges n's CPU for one client-facing request. With a tracer
// attached it splits the time into queueing (stop-the-world pause +
// CPU-slot wait) and service phases.
//
//simlint:hotpath
func (e *Env) Serve(p *sim.Proc, n *cluster.Node) {
	cost := e.Cluster.Config.CPUOpCost
	if e.Tracer == nil {
		n.Exec(p, cost)
		return
	}
	t0 := p.Now()
	wait := n.ExecTimed(p, cost)
	if wait > 0 {
		e.Tracer.Interval(p, trace.PhaseCoordQueue, n.ID, t0, t0.Add(wait))
	}
	e.Tracer.Phase(p, trace.PhaseCoord, n.ID, t0.Add(wait))
}

// Hop carries one node-to-node message of size bytes on q's clock and
// reports whether it arrived. A node talking to itself is free; with a
// tracer attached a delivered message is one span at the receiver, billed
// to the wan phase when it crossed DCs — so tracebreak can attribute
// wide-area latency — and to replica fan-out otherwise.
//
//simlint:hotpath
func (e *Env) Hop(q *sim.Proc, from, to *cluster.Node, size int) bool {
	if from == to {
		return true
	}
	if e.Tracer == nil {
		return from.SendTo(q, to, size)
	}
	t0 := q.Now()
	if !from.SendTo(q, to, size) {
		return false
	}
	ph := trace.PhaseFanout
	if from.Zone != to.Zone {
		ph = trace.PhaseWAN
	}
	e.Tracer.Phase(q, ph, to.ID, t0)
	return true
}

// Mute and Bill bracket work of q that a tracer, if one is attached, bills
// to node as one composite span of phase ph, dropping the sub-phases
// recorded in between so they are not double-counted. Bill with record
// false closes the bracket without a span: the work came to nothing.
func (e *Env) Mute(q *sim.Proc) (t0 sim.Time, prev any) {
	if e.Tracer == nil {
		return 0, nil
	}
	return q.Now(), e.Tracer.Mute(q)
}

// Bill closes the bracket Mute opened.
func (e *Env) Bill(q *sim.Proc, ph trace.Phase, node *cluster.Node, t0 sim.Time, prev any, record bool) {
	if e.Tracer != nil {
		e.Tracer.Unmute(q, prev)
		if record {
			e.Tracer.Interval(q, ph, node.ID, t0, q.Now())
		}
	}
}

// Mutation is one versioned write on its way to a host: a record's cells,
// or a delete.
type Mutation struct {
	Key kv.Key
	Rec kv.Record
	Del bool
	Ver kv.Version
}

// Apply performs the host-side work of a mutation that arrived as an
// internal verb: CPU (cheaper than a client-facing request), commit log
// append, memtable apply, billed as one storage span. src tells the oracle
// how the version reached this host (write fan-out, repair, hint or job
// replay); report false keeps it from the oracle altogether — a stand-in's
// copy is not a replica.
//
//simlint:hotpath
func (h *Host) Apply(p *sim.Proc, m Mutation, src consistency.ApplySource, report bool) {
	e := h.env
	var t0 sim.Time
	if e.Tracer != nil {
		t0 = p.Now()
	}
	h.Node.Exec(p, e.Cluster.Config.InternalCost())
	if m.Del {
		h.Engine.ApplyDelete(p, m.Key, m.Ver)
	} else {
		h.Engine.Apply(p, m.Key, m.Rec, m.Ver)
	}
	if e.Tracer != nil {
		e.Tracer.Phase(p, trace.PhaseStorage, h.Node.ID, t0)
	}
	if e.Oracle != nil && report {
		e.Oracle.ReplicaApply(m.Key, m.Ver, h.Node.ID, src, p.Now())
	}
}

// Caller is who a host is reading for. A client machine (Client true)
// sends a client-facing request: the host bills its CPU through Serve,
// ahead of the storage span, and the two messages are the op's own network
// time, untraced. Another database node sends an internal verb: plain CPU
// inside the storage span, and each message a traced Hop.
type Caller struct {
	Node   *cluster.Node
	Client bool
}

// send carries one message of c's exchange with a host.
//
//simlint:hotpath
func (e *Env) send(q *sim.Proc, c Caller, from, to *cluster.Node, size int) bool {
	if c.Client {
		return from.SendTo(q, to, size)
	}
	return e.Hop(q, from, to, size)
}

// admit charges h's CPU for taking in one read request of c and returns
// the start of its storage span.
//
//simlint:hotpath
func (h *Host) admit(q *sim.Proc, c Caller) (s0 sim.Time) {
	e := h.env
	if c.Client {
		e.Serve(q, h.Node)
	}
	if e.Tracer != nil {
		s0 = q.Now()
	}
	if !c.Client {
		h.Node.Exec(q, e.Cluster.Config.CPUOpCost)
	}
	return s0
}

// Get is the host-side service of a point read that has arrived: CPU and
// the engine lookup, the row read-only as Engine.GetInto hands it out — a
// frozen row to keep, or into (nil: a fresh row) for as long as the caller
// keeps that.
//
//simlint:hotpath
func (h *Host) Get(q *sim.Proc, c Caller, key kv.Key, into *storage.Row) *storage.Row {
	s0 := h.admit(q, c)
	row := h.Engine.GetInto(q, key, into)
	if h.env.Tracer != nil {
		h.env.Tracer.Phase(q, trace.PhaseStorage, h.Node.ID, s0)
	}
	return row
}

// Scan is the host-side service of a range read that has arrived: CPU, the
// engine's first n rows ≥ start (read-only as Engine.ScanInto hands them
// out, in into under its terms), CPU per row materialized. size is the
// response's wire size.
//
//simlint:hotpath
func (h *Host) Scan(q *sim.Proc, c Caller, start kv.Key, n int, into []storage.ScanRow) (rows []storage.ScanRow, size int) {
	e := h.env
	s0 := h.admit(q, c)
	rows = h.Engine.ScanInto(q, start, n, into)
	if n := len(rows); n > 0 && e.Cluster.Config.ScanRowCost > 0 {
		h.Node.Exec(q, time.Duration(n)*e.Cluster.Config.ScanRowCost)
	}
	if e.Tracer != nil {
		e.Tracer.Phase(q, trace.PhaseStorage, h.Node.ID, s0)
	}
	size = RequestOverhead
	for _, r := range rows {
		size += r.Row.Bytes()
	}
	return rows, size
}

// Response is one host's answer to a row fetch.
type Response struct {
	Host *Host
	Row  *storage.Row // full data; nil for a pure digest or an absent row
	Ver  kv.Version   // the row's version (the digest)
	OK   bool
}

// Fetch reads h's row of key on behalf of c — request, host service,
// response — on q's clock. A digest read answers with the version alone.
// OK is false when either message is lost. into is the scratch row of
// Host.Get: the response's Row may be it.
//
//simlint:hotpath
func (h *Host) Fetch(q *sim.Proc, c Caller, key kv.Key, digestOnly bool, into *storage.Row) Response {
	e := h.env
	resp := Response{Host: h}
	if !e.send(q, c, c.Node, h.Node, len(key)+RequestOverhead) {
		return resp
	}
	row := h.Get(q, c, key, into)
	size := RequestOverhead
	if row != nil && !digestOnly {
		size += row.Bytes()
	}
	if !e.send(q, c, h.Node, c.Node, size) {
		return resp
	}
	resp.OK = true
	if row != nil {
		resp.Ver = row.Version()
		if !digestOnly {
			resp.Row = row
		}
	}
	return resp
}

// FetchLeg is what a point read's leg embeds to fetch one host's row: the
// host, whether it answers with the version alone, the scratch row to fetch
// into, and the future it answers through.
type FetchLeg struct {
	Host   *Host
	Digest bool
	Row    storage.Row
	Answer sim.Future[Response]
}

func (l *FetchLeg) fetchLeg() *FetchLeg { return l }

// Await collects the answers of legs in order, appending them to resps, all
// within d from now. err is kv.ErrTimeout when an answer is not in by then
// and kv.ErrUnavailable when one lost a message; legs still out run on.
//
//simlint:hotpath
func Await[L interface{ fetchLeg() *FetchLeg }](p *sim.Proc, d time.Duration, legs []L, resps []Response) ([]Response, error) {
	start := p.Now()
	for _, l := range legs {
		r, ok := l.fetchLeg().Answer.AwaitTimeout(p, d-p.Now().Sub(start))
		if !ok {
			return resps, kv.ErrTimeout
		}
		if !r.OK {
			return resps, kv.ErrUnavailable
		}
		resps = append(resps, r)
	}
	return resps, nil
}

// Reconcile folds the successful responses' rows in ascending node-id order
// and returns the result: nil when no host holds the row, one response's own
// row when none of the others adds to it (the common case between in-sync
// replicas), and otherwise the merge, built in into — which must be none of
// the responses' rows — or in a fresh row when into is nil. Row merging is
// last-write-wins with the incumbent cell kept on a version tie, so a fixed
// fold order pins tie resolution to the lowest node id regardless of contact
// order, arrival order, or which replica happened to serve the data read.
// Write timestamps are unique today (Version), which makes this
// behavior-neutral; it exists so reconciliation can never become
// order-dependent if versioning ever gains ties, and so oracle version-lag
// counts stay deterministic.
//
//simlint:hotpath
func Reconcile(resps []Response, into *storage.Row) *storage.Row {
	var buf [8]int
	order := buf[:0]
	for i := range resps {
		if !resps[i].OK {
			continue
		}
		j := len(order)
		order = append(order, i)
		for ; j > 0 && resps[order[j-1]].Host.Node.ID > resps[i].Host.Node.ID; j-- {
			order[j] = order[j-1]
		}
		order[j] = i
	}
	var merged *storage.Row
	for _, i := range order {
		merged = storage.Merged(merged, resps[i].Row, into)
	}
	return merged
}

// Fill ends a client's point read: it projects the reconciled row the read
// found (nil: none) onto fields, into the record the client keeps — *rec, made
// here by the first read that finds a live row and refilled by every later one
// — and returns what kv.Client.Read does. It does not yield, so a client that
// calls it after its last message returns the record unshared.
//
//simlint:hotpath
func Fill(rec *kv.Record, row *storage.Row, fields []string) (kv.Record, error) {
	var out kv.Record
	if row != nil {
		out = row.ProjectInto(fields, *rec)
	}
	if out == nil {
		return nil, kv.ErrNotFound
	}
	*rec = out
	return out, nil
}

// Observed tells the oracle, if one is attached, what client oid's read of
// key, issued at start, observes: the version of the reconciled row it is
// answered from — a tombstone's for a deleted row, 0 when there is none.
//
//simlint:hotpath
func (e *Env) Observed(oid int, key kv.Key, row *storage.Row, start sim.Time) {
	if e.Oracle != nil {
		var ver kv.Version
		if row != nil {
			ver = row.Version()
		}
		e.Oracle.ReadObserved(oid, key, ver, start)
	}
}

// scanOp is one ScanAll, pooled (sim.Op): a slot per host for its answer,
// and a leg per live host that keeps its row buffer across uses.
type scanOp struct {
	sim.Op[scanLeg]
	env     *Env
	c       Caller
	start   kv.Key
	perHost int
	parts   [][]storage.ScanRow // by host; nil: down, or a message was lost
}

// scanLeg asks one host for its share of its op's range.
type scanLeg struct {
	op   *scanOp
	host int               // index into env.hosts and op.parts
	rows []storage.ScanRow // what a host's engine last filled
	run  func(*sim.Proc)   // scan, bound once: spawning a leg allocates nothing
}

//simlint:coldpath
func (op *scanOp) newLeg() *scanLeg {
	l := &scanLeg{op: op}
	l.run = l.scan
	return l
}

// ScanAll is the range scan of a hash-partitioned store. Consecutive keys
// scatter across the cluster, so c asks every live host for its local rows
// ≥ start, each on its own process named label, and merges — the cost shape
// of get_range_slices over token ranges. rf is the replication factor; ok
// is false when no host is alive. The result is built in into (nil: a fresh
// slice), as storage.MergeScans builds it.
//
//simlint:hotpath
func (e *Env) ScanAll(p *sim.Proc, label string, c Caller, rf int, start kv.Key, limit int, fields []string, into []kv.KV) (out []kv.KV, ok bool) {
	alive := 0
	for _, h := range e.hosts {
		if !h.Node.Down() {
			alive++
		}
	}
	if alive == 0 {
		return nil, false
	}
	op := sim.Take(&e.scanOps)
	if op == nil {
		op = &scanOp{env: e, parts: make([][]storage.ScanRow, len(e.hosts))}
	}
	op.Begin()
	// Each host holds roughly limit·RF/alive of the next limit global
	// keys; fetch that share plus slack. (An exact range scan would need
	// per-host iteration rounds; the slack makes short ranges complete
	// in one round at realistic cost.)
	op.c, op.start, op.perHost = c, start, min(limit, limit*rf/alive+4)
	// One leg per live host fills that host's slot of parts; p sleeps until
	// the last leg, answered or not, has let go.
	for i, h := range e.hosts {
		if !h.Node.Down() {
			l := op.Leg(op.newLeg)
			l.host = i
			e.K.Go(label, l.run)
		}
	}
	op.AwaitLegs(p)
	out = storage.MergeScans(op.parts, limit, fields, into)
	// The last holder empties the buffers — a row that compaction has since
	// replaced is not kept alive by a scan that once returned it.
	op.Release()
	for _, l := range op.Legs() {
		clear(l.rows)
	}
	clear(op.parts)
	op.start = ""
	e.scanOps = append(e.scanOps, op)
	return out, true
}

// scan asks the leg's host for its first perHost local rows ≥ start on
// behalf of the op's caller; the host's slot stays nil if either message is
// lost.
//
//simlint:hotpath
func (l *scanLeg) scan(q *sim.Proc) {
	op, e := l.op, l.op.env
	h, c := e.hosts[l.host], op.c
	if e.send(q, c, c.Node, h.Node, len(op.start)+RequestOverhead) {
		var size int
		l.rows, size = h.Scan(q, c, op.start, op.perHost, l.rows)
		if e.send(q, c, h.Node, c.Node, size) {
			op.parts[l.host] = l.rows
		}
	}
	op.Release()
}
