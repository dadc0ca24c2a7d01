// Package cassandra implements a Cassandra-like cloud serving database on
// the simulated cluster: a Murmur-style token ring with virtual nodes,
// SimpleStrategy or per-DC NetworkTopologyStrategy replica placement,
// coordinators that fan mutations out to every replica while acknowledging
// at the requested consistency level,
// digest reads with blocking read repair, probabilistic background read
// repair, hinted handoff, and per-node commit log + memtable + SSTable
// storage with last-write-wins timestamps.
//
// The design follows §2 of the paper: tunable consistency (ONE, QUORUM,
// ALL, set per request), a fixed replica order in which the first "main
// replica" is always contacted, and the built-in read repair that §4.1
// identifies as the cause of rising read latency at high replication
// factors.
package cassandra

import (
	"slices"
	"time"

	"cloudbench/internal/cluster"
	"cloudbench/internal/consistency"
	"cloudbench/internal/kv"
	"cloudbench/internal/ring"
	"cloudbench/internal/sim"
	"cloudbench/internal/storage"
	"cloudbench/internal/trace"
)

// Config parameterizes the database.
type Config struct {
	// Replication is the keyspace replication factor, the paper's knob.
	Replication int
	// VNodes is the number of virtual-node tokens per host.
	VNodes int
	// DCReplicas, when non-empty, is NetworkTopologyStrategy placement
	// with an explicit replication factor per data center (DCReplicas[z]
	// replicas in zone z), overriding Replication: the effective total
	// replication factor is the sum. Empty is SimpleStrategy.
	DCReplicas []int
	// ReadCL and WriteCL are the default consistency levels; clients may
	// override per request.
	ReadCL, WriteCL kv.ConsistencyLevel
	// ReadRepairChance is the probability that a point read triggers a
	// background repair across all replicas (table read_repair_chance;
	// Cassandra 2.0 defaults to 0.1 and the paper notes the feature is on
	// by default).
	ReadRepairChance float64
	// HintedHandoff stores mutations for down replicas and replays them
	// on recovery.
	HintedHandoff bool
	// Engine configures each node's storage.
	Engine storage.Config
	// RequestOverhead is the fixed per-message overhead in bytes.
	RequestOverhead int
	// Timeout bounds how long a coordinator waits for replica responses.
	Timeout time.Duration
	// HintReplayInterval is how often stored hints are retried.
	HintReplayInterval time.Duration
	// HintWindow bounds how long a hint is kept before being dropped
	// (Cassandra's max_hint_window_in_ms, default 3 h).
	HintWindow time.Duration
	// MutationStageMeanDelay models the replica-side MutationStage: each
	// mutation apply waits an exponentially distributed extra delay with
	// mean MutationStageMeanDelay × Replication before executing (SEDA
	// stage hand-off and JVM thread-scheduling variance; the stage's
	// offered load scales with the replication factor because every
	// client write fans out to RF replicas). Zero, the default, disables
	// it: deliveries then process strictly FIFO per node, under which a
	// read issued after a write's ack can never overtake the main
	// replica's pending apply, so CL=ONE staleness is structurally
	// impossible. The latency experiments leave it off (sub-millisecond
	// jitter is second order for latency); the consistency audit turns it
	// on, because this per-message reordering is exactly what opens the
	// real-world CL=ONE visibility window it measures.
	MutationStageMeanDelay time.Duration
}

// DefaultConfig returns a Cassandra configuration matching the paper's
// recommended setup at replication factor 3 and consistency ONE.
func DefaultConfig() Config {
	ecfg := storage.DefaultConfig()
	// commitlog_sync: periodic (the Cassandra default): writes are acked
	// after the memtable apply; the commit log reaches the device in
	// background batches.
	ecfg.SyncWAL = false
	return Config{
		Replication:        3,
		VNodes:             16,
		ReadCL:             kv.One,
		WriteCL:            kv.One,
		ReadRepairChance:   0.1,
		HintedHandoff:      true,
		Engine:             ecfg,
		RequestOverhead:    64,
		Timeout:            5 * time.Second,
		HintReplayInterval: 10 * time.Second,
		HintWindow:         3 * time.Hour,
	}
}

// Replica is one Cassandra host: a cluster node plus its local storage.
type Replica struct {
	Node   *cluster.Node
	engine *storage.Engine
	hints  []hint
}

// Engine exposes the replica's storage engine for inspection.
func (r *Replica) Engine() *storage.Engine { return r.engine }

// mutation is one write on its way to the replicas. write builds it once,
// in the writeOp every leg of the write points at.
type mutation struct {
	key  kv.Key
	rec  kv.Record
	del  bool
	ver  kv.Version
	size int // wire size
}

// hint is a mutation stored on behalf of a down replica.
type hint struct {
	target *Replica
	mutation
	stored sim.Time
}

// DB is one Cassandra deployment.
type DB struct {
	k    *sim.Kernel
	cfg  Config
	cl   *cluster.Cluster
	reps []*Replica
	ring *ring.Ring[*Replica]
	// placement is the configured strategy at every vnode of ring: the
	// replica sets ReplicasFor hands out, shared and read-only.
	placement *ring.Table[*Replica]

	nextVersion  kv.Version
	rrSeq        uint64 // deterministic read-repair dice
	repairPeriod uint64 // every repairPeriod-th read repairs in the background; 0 never
	hintProcLive bool
	oracle       *consistency.Oracle
	tracer       *trace.Tracer

	// Free lists of the per-operation structs. A DB lives on one kernel,
	// which runs one process at a time, so they need no lock.
	writeOps []*writeOp
	readOps  []*readOp

	// Metrics.
	Reads, Writes, ScansDone       int64
	BlockingRepairs, AsyncRepairs  int64
	RepairWrites, HintsStored      int64
	HintsReplayed, DigestMismatch  int64
	HintsExpired                   int64
	CoordinatorTimeouts, Unavails  int64
	StaleReads, ConsistentChecksOK int64
	// InterDCForwards counts mutations forwarded across a WAN link — one
	// per (write, remote DC with a live replica), never one per remote
	// replica, which is the bandwidth contract of the forwarding path.
	InterDCForwards int64
}

// New builds a database over the given server nodes.
func New(k *sim.Kernel, cfg Config, nodes []*cluster.Node) *DB {
	if len(cfg.DCReplicas) > 0 {
		// Clamp each DC's target to its actual host count and derive the
		// effective total replication factor.
		hosts := make([]int, len(cfg.DCReplicas))
		for _, n := range nodes {
			if n.Zone < len(hosts) {
				hosts[n.Zone]++
			}
		}
		perDC := append([]int(nil), cfg.DCReplicas...)
		total := 0
		for z := range perDC {
			if perDC[z] < 0 {
				perDC[z] = 0
			}
			if perDC[z] > hosts[z] {
				perDC[z] = hosts[z]
			}
			total += perDC[z]
		}
		cfg.DCReplicas = perDC
		cfg.Replication = total
	}
	if cfg.Replication < 1 {
		cfg.Replication = 1
	}
	if cfg.Replication > len(nodes) {
		cfg.Replication = len(nodes)
	}
	if cfg.VNodes < 1 {
		cfg.VNodes = 1
	}
	db := &DB{k: k, cfg: cfg}
	if len(nodes) > 0 {
		db.cl = nodes[0].Cluster()
	}
	for i, n := range nodes {
		rep := &Replica{Node: n}
		rep.engine = storage.NewEngine(k, cfg.Engine,
			storage.LocalIO{Disk: n.Disk},
			storage.DiskLog{Disk: n.Disk},
			k.Seed()^int64(i+101))
		db.reps = append(db.reps, rep)
	}
	rng := k.Rand()
	db.ring = ring.New(db.reps, func(r *Replica) int { return r.Node.Zone }, cfg.VNodes, rng.Uint64)
	db.placement = db.ring.Memoize(db.place)
	if cfg.ReadRepairChance > 0 {
		db.repairPeriod = max(1, uint64(1.0/cfg.ReadRepairChance))
	}
	return db
}

// take pops a pooled struct off a free list; nil means build one.
func take[T any](free *[]*T) *T {
	n := len(*free)
	if n == 0 {
		return nil
	}
	x := (*free)[n-1]
	*free = (*free)[:n-1]
	return x
}

// SetOracle attaches a consistency oracle observing every write lifecycle
// event and read observation. Pass nil (the default) to run unobserved:
// every hook call site is gated on a nil check, so the paper's performance
// experiments pay nothing for the instrumentation.
func (db *DB) SetOracle(o *consistency.Oracle) { db.oracle = o }

// Oracle returns the attached consistency oracle, if any.
func (db *DB) Oracle() *consistency.Oracle { return db.oracle }

// SetTracer attaches a request tracer recording per-phase spans along the
// read, write, repair, and hint paths. Pass nil (the default) to run
// untraced: like the oracle, every call site is nil-gated.
func (db *DB) SetTracer(t *trace.Tracer) {
	db.tracer = t
	for _, rep := range db.reps {
		node := rep.Node
		if t == nil {
			rep.engine.OnWALSync = nil
			continue
		}
		rep.engine.OnWALSync = func(p *sim.Proc, start sim.Time) {
			t.Phase(p, trace.PhaseWAL, node.ID, start)
		}
	}
}

// Tracer returns the attached tracer, if any.
func (db *DB) Tracer() *trace.Tracer { return db.tracer }

// Replicas returns the database's hosts.
func (db *DB) Replicas() []*Replica { return db.reps }

// ReplicasFor returns the replica set for key in ring order (main replica
// first). The slice is shared by every key the ring places alike: callers
// must not modify it.
func (db *DB) ReplicasFor(key kv.Key) []*Replica {
	return db.placement.For(ring.Hash(key))
}

// place is the configured placement strategy.
func (db *DB) place(t ring.Token) []*Replica {
	if len(db.cfg.DCReplicas) > 0 {
		return db.ring.PerZone(t, db.cfg.DCReplicas)
	}
	return db.ring.Simple(t, db.cfg.Replication)
}

// execCoord charges coordinator CPU for one request. With a tracer
// attached it splits the time into coordinator queueing (stop-the-world
// pause + CPU-slot wait) and coordinator service phases.
func (db *DB) execCoord(p *sim.Proc, n *cluster.Node, cost time.Duration) {
	if db.tracer == nil {
		n.Exec(p, cost)
		return
	}
	t0 := p.Now()
	wait := n.ExecTimed(p, cost)
	if wait > 0 {
		db.tracer.Interval(p, trace.PhaseCoordQueue, n.ID, t0, t0.Add(wait))
	}
	db.tracer.Phase(p, trace.PhaseCoord, n.ID, t0.Add(wait))
}

// hop carries one message of size bytes from one node to another on q's
// clock and reports whether it arrived. A node talking to itself is free;
// with a tracer attached a delivered message is one span at the receiver,
// wan when it crossed DCs and fanout otherwise.
func (db *DB) hop(q *sim.Proc, from, to *cluster.Node, size int) bool {
	if from == to {
		return true
	}
	if db.tracer == nil {
		return from.SendTo(q, to, size)
	}
	t0 := q.Now()
	if !from.SendTo(q, to, size) {
		return false
	}
	db.tracer.Phase(q, legPhase(from, to), to.ID, t0)
	return true
}

// version issues the next write timestamp.
func (db *DB) version() kv.Version {
	db.nextVersion++
	return kv.Version(db.k.Now()) + db.nextVersion
}

// rollRepair decides deterministically whether a read triggers background
// read repair, approximating an independent coin with P = ReadRepairChance.
func (db *DB) rollRepair() bool {
	if db.repairPeriod == 0 {
		return false
	}
	db.rrSeq++
	return db.rrSeq%db.repairPeriod == 0
}

// mutationSize models the wire size of a mutation.
func (db *DB) mutationSize(key kv.Key, rec kv.Record) int {
	return rec.Bytes() + len(key) + db.cfg.RequestOverhead
}

// applyLocal performs the replica-side work of a mutation: CPU (internal
// verb, cheaper than a client-facing request), commit log append, memtable
// apply. src tells the oracle how the version reached this replica (write
// fan-out, read repair, or hint replay).
func (rep *Replica) applyLocal(p *sim.Proc, db *DB, key kv.Key, rec kv.Record, del bool, ver kv.Version, src consistency.ApplySource) {
	if d := db.cfg.MutationStageMeanDelay; d > 0 {
		mean := float64(d) * float64(db.cfg.Replication)
		p.Sleep(time.Duration(p.Rand().ExpFloat64() * mean))
	}
	cost := db.cl.Config.InternalOpCost
	if cost <= 0 {
		cost = db.cl.Config.CPUOpCost
	}
	var t0 sim.Time
	if db.tracer != nil {
		t0 = p.Now()
	}
	rep.Node.Exec(p, cost)
	if del {
		rep.engine.ApplyDelete(p, key, ver)
	} else {
		rep.engine.Apply(p, key, rec, ver)
	}
	if db.tracer != nil {
		db.tracer.Phase(p, trace.PhaseStorage, rep.Node.ID, t0)
	}
	if db.oracle != nil {
		db.oracle.ReplicaApply(key, ver, rep.Node.ID, src, p.Now())
	}
}

// writeOp is one coordinator write, pooled: the mutation, the ack plan, its
// legs (kept across uses) and a count of who still needs them — the
// coordinator until it has its answer, and every leg in flight. ONE returns
// while two legs are on their way, so the op goes back to the free list only
// when the last holder lets go: a late ack or loss always lands on the write
// it belongs to, whose future is settled and has nobody waiting.
type writeOp struct {
	db    *DB
	refs  int
	coord *Replica
	m     mutation
	acks  ackPlan
	legs  []*writeLeg
	used  int
}

// writeLeg carries its op's mutation from one node to rep and the ack back.
// A leg into another DC also holds that DC's other live replicas, to relay
// to once it has landed.
type writeLeg struct {
	op    *writeOp
	from  *cluster.Node
	rep   *Replica
	relay []*Replica
	run   func(*sim.Proc) // deliver, bound once: spawning a leg allocates nothing
}

//simlint:coldpath
func newWriteLeg(op *writeOp) *writeLeg {
	l := &writeLeg{op: op}
	l.run = l.deliver
	return l
}

// leg hands out op's next leg, aimed from from at rep; it holds op until
// deliver has run.
func (op *writeOp) leg(from *cluster.Node, rep *Replica) *writeLeg {
	if op.used == len(op.legs) {
		op.legs = append(op.legs, newWriteLeg(op))
	}
	l := op.legs[op.used]
	op.used++
	l.from, l.rep, l.relay = from, rep, l.relay[:0]
	op.refs++
	return l
}

// release drops one hold on op; the last one returns it to the free list.
func (op *writeOp) release() {
	if op.refs--; op.refs == 0 {
		op.used, op.m = 0, mutation{}
		op.db.writeOps = append(op.db.writeOps, op)
	}
}

// write is the coordinator write path, executed by the client's process at
// the coordinator node. The mutation reaches every replica, but differently
// per distance: replicas in the coordinator's own DC get a direct message
// each, every other DC one message across the WAN, to its first live
// replica in ring order, which relays it (see deliver). Down replicas are
// hinted at the coordinator, every live one acks it directly, and write
// returns once the level's acknowledgement plan is decided. The paper's
// single rack is the one-DC case: all legs direct, nothing forwarded.
//
//simlint:hotpath
func (db *DB) write(p *sim.Proc, coord *Replica, key kv.Key, rec kv.Record, del bool, cl kv.ConsistencyLevel) error {
	op := take(&db.writeOps)
	if op == nil {
		op = &writeOp{db: db}
	}
	op.refs, op.coord = 1, coord
	err := op.coordinate(p, key, rec, del, cl)
	op.release()
	return err
}

// coordinate is write on its op. The order is what every pinned digest
// depends on: availability is decided before the version is drawn, DCs are
// walked in zone order and replicas in ring order inside a DC, and a DC's
// hints are noted in that walk before its leg is spawned.
//
//simlint:hotpath
func (op *writeOp) coordinate(p *sim.Proc, key kv.Key, rec kv.Record, del bool, cl kv.ConsistencyLevel) error {
	db, coord := op.db, op.coord
	replicas := db.ReplicasFor(key)
	if !op.acks.plan(db, cl, coord.Node.Zone, replicas) {
		db.Unavails++
		return kv.ErrUnavailable
	}
	op.m = mutation{key: key, rec: rec, del: del, ver: db.version(), size: db.mutationSize(key, rec)}
	if db.oracle != nil {
		db.oracle.WriteBegin(key, op.m.ver, len(replicas), db.k.Now())
	}
	for z, zones := 0, db.zones(); z < zones; z++ {
		var fwd *writeLeg // into another DC: the one leg that crosses the WAN
		for _, rep := range replicas {
			switch {
			case rep.Node.Zone != z:
			case rep.Node.Down():
				db.noteHint(coord, rep, op.m)
			case rep == coord:
				// The coordinator's own apply runs concurrently too, so a slow
				// local commit-log append does not serialize the fan-out.
				db.k.Go("c*-local-write", op.leg(coord.Node, rep).run)
			case z == coord.Node.Zone:
				db.k.Go("c*-repl-write", op.leg(coord.Node, rep).run)
			case fwd == nil:
				fwd = op.leg(coord.Node, rep)
			default:
				fwd.relay = append(fwd.relay, rep)
			}
		}
		if fwd != nil {
			db.InterDCForwards++
			db.k.Go("c*-fwd-write", fwd.run)
		}
	}
	ok, decided := op.acks.f.AwaitTimeout(p, db.cfg.Timeout)
	if !decided {
		db.CoordinatorTimeouts++
		return kv.ErrTimeout
	}
	if !ok {
		db.Unavails++
		return kv.ErrUnavailable
	}
	if db.oracle != nil {
		db.oracle.WriteAck(key, op.m.ver, db.k.Now())
	}
	return nil
}

// deliver is one replica's leg of a write: the mutation arrives from the
// node that sends it (the coordinator, or a remote DC's forwarder), rep
// applies it and acks the coordinator directly. On a leg into another DC
// rep is that DC's forwarder: it relays to the DC's other live replicas
// over local links once the WAN hop has landed and before its own apply, so
// a slow commit log does not serialize the intra-DC fan-out; a dropped
// forward loses the mutation for the whole DC, so it fails once per live
// replica there.
//
//simlint:hotpath
func (l *writeLeg) deliver(q *sim.Proc) {
	op, rep, db := l.op, l.rep, l.op.db
	z := rep.Node.Zone
	if !db.hop(q, l.from, rep.Node, op.m.size) {
		for range 1 + len(l.relay) {
			op.acks.fail(z)
		}
	} else {
		for _, r := range l.relay {
			db.k.Go("c*-relay-write", op.leg(rep.Node, r).run)
		}
		rep.applyLocal(q, db, op.m.key, op.m.rec, op.m.del, op.m.ver, consistency.ApplyWrite)
		if db.hop(q, rep.Node, op.coord.Node, db.cfg.RequestOverhead) {
			op.acks.ack(z)
		} else {
			op.acks.fail(z)
		}
	}
	op.release()
}

// readResponse carries one replica's answer to a read.
type readResponse struct {
	rep *Replica
	row *storage.Row // full data for the data read, nil for pure digests
	ver kv.Version   // row version (the digest)
	ok  bool
}

// readOp is one coordinator read, pooled like a writeOp and held by the
// coordinator and by every process working for it — fetch legs, the
// background repair, repair writes — so a read that timed out or returned
// at ONE is not reused while a leg still reads its key or sets its future.
// The slices and legs are kept across uses.
type readOp struct {
	db    *DB
	refs  int
	coord *Replica
	key   kv.Key

	alive     []*Replica     // live replicas, proximity-sorted
	pool      []*Replica     // LOCAL_QUORUM's and EACH_QUORUM's contact set
	contacted []*Replica     // who the level made the coordinator wait for
	resps     []readResponse // their answers
	legs      []*readLeg
	used      int

	// The repair in progress: the reconciled record (nil: a delete), its
	// version and the repair writes still out. A read runs one at a time:
	// the blocking one is over before the background one is spawned.
	rec      kv.Record
	ver      kv.Version
	repairs  int
	repaired sim.Future[struct{}]

	background func(*sim.Proc) // repairRest, bound once
}

// readLeg is one process spawned for a readOp: a fetch of rep's row,
// answered through f, or a repair write to rep.
type readLeg struct {
	op                 *readOp
	rep                *Replica
	digestOnly, repair bool
	f                  sim.Future[readResponse]
	fetch, write       func(*sim.Proc) // fetchRow and repairWrite, bound once
}

//simlint:coldpath
func newReadLeg(op *readOp) *readLeg {
	l := &readLeg{op: op}
	l.f.Init(op.db.k)
	l.fetch, l.write = l.fetchRow, l.repairWrite
	return l
}

// leg hands out op's next leg, aimed at rep; it holds op until its process
// has finished.
func (op *readOp) leg(rep *Replica, digestOnly, repair bool) *readLeg {
	if op.used == len(op.legs) {
		op.legs = append(op.legs, newReadLeg(op))
	}
	l := op.legs[op.used]
	op.used++
	l.rep, l.digestOnly, l.repair = rep, digestOnly, repair
	op.refs++
	return l
}

// release drops one hold on op; the last one forgets the rows and the
// record the read saw and returns it to the free list.
func (op *readOp) release() {
	if op.refs--; op.refs > 0 {
		return
	}
	for _, l := range op.legs[:op.used] {
		l.f.Init(op.db.k)
	}
	clear(op.resps)
	op.used, op.key, op.rec = 0, "", nil
	op.db.readOps = append(op.db.readOps, op)
}

// muteLeg and billLeg bracket work of q that a tracer, if one is attached,
// bills to node as one span of phase ph, dropping the sub-phases recorded
// in between.
func (db *DB) muteLeg(q *sim.Proc) (t0 sim.Time, prev any) {
	if db.tracer == nil {
		return 0, nil
	}
	return q.Now(), db.tracer.Mute(q)
}

func (db *DB) billLeg(q *sim.Proc, ph trace.Phase, node *cluster.Node, t0 sim.Time, prev any) {
	if db.tracer != nil {
		db.tracer.Unmute(q, prev)
		db.tracer.Interval(q, ph, node.ID, t0, q.Now())
	}
}

// fetchRow reads rep's row on behalf of the coordinator — request, replica
// service, response — and answers through the leg's future.
//
// A background-repair refetch bills the whole leg as one read-repair span,
// its fanout and storage sub-phases muted so they are not double-counted.
// Per-leg billing is what makes the repair bill grow with the replication
// factor: the legs run concurrently, so a single wall-clock span over all
// of them would only measure the slowest.
//
//simlint:hotpath
func (l *readLeg) fetchRow(q *sim.Proc) {
	op, db, rep, coord := l.op, l.op.db, l.rep, l.op.coord
	var t0, s0 sim.Time
	var prev any
	if l.repair {
		t0, prev = db.muteLeg(q)
	}
	resp := readResponse{rep: rep}
	if db.hop(q, coord.Node, rep.Node, len(op.key)+db.cfg.RequestOverhead) {
		if db.tracer != nil {
			s0 = q.Now()
		}
		rep.Node.Exec(q, db.cl.Config.CPUOpCost)
		//simlint:ignore hotpath the closure SSTable.Get hands sort.Search does not escape (TestGetSingleSSTableZeroAlloc holds it at 0)
		row := rep.engine.Get(q, op.key)
		if db.tracer != nil {
			db.tracer.Phase(q, trace.PhaseStorage, rep.Node.ID, s0)
		}
		respSize := db.cfg.RequestOverhead
		if !l.digestOnly && row != nil {
			respSize += row.Bytes()
		}
		if db.hop(q, rep.Node, coord.Node, respSize) {
			resp.ok = true
			if row != nil {
				resp.ver = row.Version()
				if !l.digestOnly {
					resp.row = row
				}
			}
		}
	}
	l.f.Set(resp)
	if l.repair {
		db.billLeg(q, trace.PhaseReadRepair, rep.Node, t0, prev)
	}
	op.release()
}

// read is the coordinator read path: a full data read from the main
// replica, digest reads from the next cl.Required-1 replicas, blocking
// read repair on digest mismatch, and probabilistic background repair
// across all replicas.
//
//simlint:hotpath
func (db *DB) read(p *sim.Proc, coord *Replica, key kv.Key, cl kv.ConsistencyLevel) (*storage.Row, error) {
	op := take(&db.readOps)
	if op == nil {
		op = &readOp{db: db}
		op.background = op.repairRest
	}
	op.refs, op.coord, op.key = 1, coord, key
	row, err := op.coordinate(p, cl)
	op.release()
	return row, err
}

// coordinate is read on its op.
//
//simlint:hotpath
func (op *readOp) coordinate(p *sim.Proc, cl kv.ConsistencyLevel) (*storage.Row, error) {
	db, coord := op.db, op.coord
	replicas := db.ReplicasFor(op.key)
	// Proximity-sort the live replicas (dynamic-snitch style): the
	// coordinator's zone first, ring order within a zone. On the paper's
	// single rack this is exactly ring order, so the "main replica" of
	// §2 is unchanged there.
	op.alive = op.alive[:0]
	for _, r := range replicas {
		if !r.Node.Down() && r.Node.Zone == coord.Node.Zone {
			op.alive = append(op.alive, r)
		}
	}
	for _, r := range replicas {
		if !r.Node.Down() && r.Node.Zone != coord.Node.Zone {
			op.alive = append(op.alive, r)
		}
	}
	need := cl.Required(len(replicas))
	pool := op.alive
	switch cl {
	case kv.LocalQuorum:
		// LOCAL_QUORUM reads contact only the coordinator's DC, blocking
		// for a majority of its replication factor; a coordinator whose DC
		// holds no replicas degrades to the plain-quorum pool.
		var localNeed int
		if op.pool, localNeed = dcLocalPlan(op.pool[:0], replicas, coord.Node.Zone); localNeed > 0 {
			pool, need = op.pool, localNeed
		}
	case kv.EachQuorum:
		// EACH_QUORUM reads block on a majority in every DC.
		var ok bool
		if op.pool, ok = db.eachQuorumRead(op.pool[:0], replicas, coord.Node.Zone); !ok {
			db.Unavails++
			return nil, kv.ErrUnavailable
		}
		pool, need = op.pool, len(op.pool)
	}
	if len(pool) < need {
		db.Unavails++
		return nil, kv.ErrUnavailable
	}
	op.contacted = pool[:need]
	for i, rep := range op.contacted {
		db.k.Go("c*-read", op.leg(rep, i != 0, false).fetch)
	}
	deadline := db.cfg.Timeout
	start := p.Now()
	op.resps = op.resps[:0]
	for _, l := range op.legs[:need] {
		remaining := deadline - p.Now().Sub(start)
		r, ok := l.f.AwaitTimeout(p, remaining)
		if !ok {
			db.CoordinatorTimeouts++
			return nil, kv.ErrTimeout
		}
		if !r.ok {
			db.Unavails++
			return nil, kv.ErrUnavailable
		}
		op.resps = append(op.resps, r)
	}

	dataRow := op.resps[0].row
	dataVer := op.resps[0].ver

	// Digest comparison → blocking read repair among contacted replicas.
	mismatch := false
	for _, r := range op.resps[1:] {
		if r.ver != dataVer {
			mismatch = true
			break
		}
	}
	if mismatch {
		db.DigestMismatch++
		db.BlockingRepairs++
		// The repair is traced as one composite span: its internal
		// refetches and repair writes are muted so they are not
		// double-billed as fanout/storage work.
		if db.tracer != nil {
			db.tracer.Mark(p, trace.PhaseDigest, coord.Node.ID)
		}
		t0, prev := db.muteLeg(p)
		dataRow = op.blockingRepair(p, dataRow)
		db.billLeg(p, trace.PhaseReadRepair, coord.Node, t0, prev)
	}

	// Background read repair across the full replica set. The replicas
	// already contacted are not re-read: their responses feed the
	// reconciliation directly (Cassandra folds the CL responses into the
	// global repair's response set).
	//
	// The background repair process inherits this read's trace context, so
	// its work is billed to the read class — the F4 mechanism made
	// measurable. Each refetch and repair-write leg records its own
	// read-repair span (the legs are concurrent, so per-leg billing — not
	// one wall-clock span across them — is what scales the recorded bill
	// with RF−1).
	if len(op.alive) > need && db.rollRepair() {
		db.AsyncRepairs++
		op.refs++
		db.k.Go("c*-bg-repair", op.background)
	}
	return dataRow, nil
}

// reconcile folds the successful responses' rows in ascending replica
// node-id order and returns the result: nil when no replica holds the row,
// one replica's own frozen row when none of the others adds to it (the
// common case between in-sync replicas), a fresh row otherwise. Row merging
// is last-write-wins with the incumbent cell kept on a version tie, so a
// fixed fold order pins tie resolution to the lowest node id regardless of
// contact order, arrival order, or which replica happened to serve the data
// read. Write timestamps are unique today (one coordinator counter), which
// makes this behavior-neutral; it exists so reconciliation can never become
// order-dependent if versioning ever gains ties, and so oracle version-lag
// counts stay deterministic.
func reconcile(resps []readResponse) *storage.Row {
	var buf [8]int
	order := buf[:0]
	for i := range resps {
		if !resps[i].ok {
			continue
		}
		j := len(order)
		order = append(order, i)
		for ; j > 0 && resps[order[j-1]].rep.Node.ID > resps[i].rep.Node.ID; j-- {
			order[j] = order[j-1]
		}
		order[j] = i
	}
	var merged *storage.Row
	for _, i := range order {
		merged = storage.Merged(merged, resps[i].row)
	}
	return merged
}

// blockingRepair fetches full rows from every contacted replica, merges
// them, writes the reconciled row back to stale replicas, and returns the
// merged row. The caller waits: this is Cassandra's foreground repair that
// delays the read.
func (op *readOp) blockingRepair(p *sim.Proc, have *storage.Row) *storage.Row {
	var buf [8]readResponse
	resps := op.gather(p, op.contacted, nil, false, buf[:0])
	// The original data read from the main replica is folded last: it can
	// only matter when the main replica's refetch was lost in flight.
	merged := storage.Merged(reconcile(resps), have)
	op.writeRepairs(p, merged, resps, true)
	if merged != nil && !merged.Live() && merged.Version() == 0 {
		return nil
	}
	return merged
}

// repairRest is the background repair process: it reconciles the live
// replicas the read did not contact, folding in the responses the read
// already has.
//
// A subtlety: the contacted responses carried full data only for the main
// replica; pure digests know the version but not the cells. Version
// comparison against the merged row is still exact, so stale detection and
// the repair write are correct; a digest replica whose version already
// matches is skipped without a refetch, exactly like the real resolver.
//
//simlint:hotpath
func (op *readOp) repairRest(q *sim.Proc) {
	var buf [8]readResponse
	resps := op.gather(q, op.alive, op.contacted, true, append(buf[:0], op.resps...))
	op.writeRepairs(q, reconcile(resps), resps, false)
	op.release()
}

// gather fetches the full row from every one of reps not in skip, all at
// once, and appends the answers that arrive to resps.
func (op *readOp) gather(p *sim.Proc, reps, skip []*Replica, repair bool, resps []readResponse) []readResponse {
	first := op.used
	for _, rep := range reps {
		if !slices.Contains(skip, rep) {
			op.db.k.Go("c*-read", op.leg(rep, false, repair).fetch)
		}
	}
	for _, l := range op.legs[first:op.used] {
		if r := l.f.Await(p); r.ok {
			resps = append(resps, r)
		}
	}
	return resps
}

// writeRepairs sends the reconciled row to every responder whose version
// lags; the record is built only once one does. When wait is true the
// caller blocks until the repairs finish.
func (op *readOp) writeRepairs(p *sim.Proc, merged *storage.Row, resps []readResponse, wait bool) {
	if merged == nil {
		return
	}
	target := merged.Version()
	if target == 0 {
		return
	}
	op.repairs = 0
	for _, r := range resps {
		if r.ver >= target {
			continue
		}
		if op.repairs == 0 {
			if op.rec, op.ver = merged.Record(), target; op.rec == nil {
				op.ver = merged.Tomb
			}
			op.repaired.Init(op.db.k)
		}
		op.repairs++
		op.db.RepairWrites++
		op.db.k.Go("c*-repair-write", op.leg(r.rep, false, false).write)
	}
	if wait && op.repairs > 0 {
		op.repaired.Await(p)
	}
}

// repairWrite is one repair write's process. It is billed as a read-repair
// leg; under a blocking repair the caller already muted the context and
// holds the composite span, so the span is dropped there and only
// background repair records per leg.
//
//simlint:hotpath
func (l *readLeg) repairWrite(q *sim.Proc) {
	op, db, rep, coord := l.op, l.op.db, l.rep, l.op.coord
	t0, prev := db.muteLeg(q)
	if rep == coord || coord.Node.SendTo(q, rep.Node, db.mutationSize(op.key, op.rec)) {
		rep.applyLocal(q, db, op.key, op.rec, op.rec == nil, op.ver, consistency.ApplyRepair)
		if rep != coord {
			rep.Node.SendTo(q, coord.Node, db.cfg.RequestOverhead)
		}
	}
	db.billLeg(q, trace.PhaseReadRepair, rep.Node, t0, prev)
	if op.repairs--; op.repairs == 0 {
		op.repaired.Set(struct{}{})
	}
	op.release()
}

// scan is the coordinator range-scan path. With a hash partitioner,
// consecutive keys scatter across the cluster, so the coordinator asks
// every live host for its local rows ≥ start and merges — the cost shape
// of get_range_slices over token ranges. Scans do not trigger read repair.
func (db *DB) scan(p *sim.Proc, coord *Replica, start kv.Key, limit int, fields []string) []kv.KV {
	alive := 0
	for _, rep := range db.reps {
		if !rep.Node.Down() {
			alive++
		}
	}
	if alive == 0 {
		return nil
	}
	// Each host holds roughly limit·RF/alive of the next limit global
	// keys; fetch that share plus slack. (An exact range scan would need
	// per-host iteration rounds; the slack makes short ranges complete
	// in one round at realistic cost.)
	perHost := min(limit, limit*db.cfg.Replication/alive+4)
	// One leg per live host fills that host's slot of parts; the
	// coordinator sleeps until the last leg, answered or not, has counted
	// down.
	parts := make([][]storage.ScanRow, len(db.reps))
	pending, done := alive, sim.NewFuture[struct{}](db.k)
	for i, rep := range db.reps {
		if rep.Node.Down() {
			continue
		}
		part := &parts[i]
		db.k.Go("c*-scan", func(q *sim.Proc) {
			*part = db.scanLeg(q, coord, rep, start, perHost)
			if pending--; pending == 0 {
				done.Set(struct{}{})
			}
		})
	}
	done.Await(p)
	return storage.MergeScans(parts, limit, fields)
}

// scanLeg asks rep for its first perHost local rows ≥ start on behalf of
// coord and returns them, read-only as Engine.Scan hands them out, or nil
// if either message is lost.
func (db *DB) scanLeg(q *sim.Proc, coord, rep *Replica, start kv.Key, perHost int) []storage.ScanRow {
	if !db.hop(q, coord.Node, rep.Node, len(start)+db.cfg.RequestOverhead) {
		return nil
	}
	var s0 sim.Time
	if db.tracer != nil {
		s0 = q.Now()
	}
	rep.Node.Exec(q, db.cl.Config.CPUOpCost)
	rows := rep.engine.Scan(q, start, perHost)
	if n := len(rows); n > 0 && db.cl.Config.ScanRowCost > 0 {
		rep.Node.Exec(q, time.Duration(n)*db.cl.Config.ScanRowCost)
	}
	if db.tracer != nil {
		db.tracer.Phase(q, trace.PhaseStorage, rep.Node.ID, s0)
	}
	if rep != coord {
		respSize := db.cfg.RequestOverhead
		for _, r := range rows {
			respSize += r.Row.Bytes()
		}
		if !db.hop(q, rep.Node, coord.Node, respSize) {
			return nil
		}
	}
	return rows
}

// noteHint, with hinted handoff on, stores m at the coordinator on behalf of
// the down replica target and ensures the replay process is running. The
// process exits when all hints have drained, so simulations with no failed
// nodes terminate cleanly.
func (db *DB) noteHint(coord, target *Replica, m mutation) {
	if !db.cfg.HintedHandoff {
		return
	}
	coord.hints = append(coord.hints, hint{target: target, mutation: m, stored: db.k.Now()})
	db.HintsStored++
	if !db.hintProcLive {
		db.hintProcLive = true
		db.k.Go("hint-replayer", db.hintReplayLoop)
	}
}

// hintReplayLoop periodically replays hints whose targets have recovered,
// exiting once none remain.
func (db *DB) hintReplayLoop(p *sim.Proc) {
	defer func() { db.hintProcLive = false }()
	// The replayer is spawned from whichever write first stored a hint;
	// detach so its long-lived work bills to the background class, not to
	// that op. Each replayed hint is one composite hint-replay span with
	// its internal apply muted.
	if db.tracer != nil {
		db.tracer.Detach(p)
	}
	for db.PendingHints() > 0 {
		p.Sleep(db.cfg.HintReplayInterval)
		for _, rep := range db.reps {
			if len(rep.hints) == 0 || rep.Node.Down() {
				continue
			}
			// Filter in place; hints stored here while this pass is blocked in
			// a replay land past all and are carried over.
			all := rep.hints
			keep := all[:0]
			for _, h := range all {
				if p.Now().Sub(h.stored) > db.cfg.HintWindow {
					db.HintsExpired++
					continue
				}
				if h.target.Node.Down() {
					keep = append(keep, h)
					continue
				}
				t0, prev := db.muteLeg(p)
				if !rep.Node.SendTo(p, h.target.Node, h.size) {
					if db.tracer != nil {
						db.tracer.Unmute(p, prev)
					}
					keep = append(keep, h)
					continue
				}
				h.target.applyLocal(p, db, h.key, h.rec, h.del, h.ver, consistency.ApplyHint)
				h.target.Node.SendTo(p, rep.Node, db.cfg.RequestOverhead)
				db.billLeg(p, trace.PhaseHintReplay, h.target.Node, t0, prev)
				db.HintsReplayed++
			}
			rep.hints = append(keep, rep.hints[len(all):]...)
			if n := len(rep.hints); n < len(all) {
				clear(all[n:]) // dropped hints' records are collectable
			}
		}
	}
}

// PendingHints reports the number of stored, unreplayed hints.
func (db *DB) PendingHints() int {
	n := 0
	for _, rep := range db.reps {
		n += len(rep.hints)
	}
	return n
}

// FlushAll forces every replica's memtable to flush (between benchmark
// phases).
func (db *DB) FlushAll() {
	for _, rep := range db.reps {
		rep.engine.ForceFlush()
	}
}

// Engines returns the per-replica engines for metric collection.
func (db *DB) Engines() []*storage.Engine {
	es := make([]*storage.Engine, len(db.reps))
	for i, r := range db.reps {
		es[i] = r.engine
	}
	return es
}
