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
	"cloudbench/internal/replica"
	"cloudbench/internal/ring"
	"cloudbench/internal/sim"
	"cloudbench/internal/storage"
	"cloudbench/internal/trace"
)

// Config parameterizes the database.
type Config struct {
	// Replication is the keyspace replication factor, the paper's knob.
	Replication int
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
	// Engine configures each node's storage.
	Engine storage.Config
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
	// jitter is second order for latency); the cells that measure
	// staleness turn it on, because this per-message reordering is exactly
	// what opens the real-world CL=ONE visibility window they measure.
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
		ReadCL:             kv.One,
		WriteCL:            kv.One,
		ReadRepairChance:   0.1,
		Engine:             ecfg,
		Timeout:            5 * time.Second,
		HintReplayInterval: 10 * time.Second,
		HintWindow:         3 * time.Hour,
	}
}

// Replica is one Cassandra host: a cluster node plus its local storage,
// and the hints it holds as a coordinator.
type Replica struct {
	replica.Host
	hints []hint
}

// mutation is one write on its way to the replicas. write builds it once,
// in the writeOp every leg of the write points at, around the op's Write.
type mutation struct {
	replica.Mutation
	size int // wire size
}

// hint is a mutation stored on behalf of a down replica, with its own copy
// of the Write: the op it came from goes back to its pool.
type hint struct {
	target *Replica
	mutation
	stored sim.Time
}

// DB is one Cassandra deployment.
type DB struct {
	replica.Env
	cfg  Config
	reps []*Replica
	ring *ring.Ring[*Replica]
	// placement is the configured strategy at every vnode of ring: the
	// replica sets ReplicasFor hands out, shared and read-only.
	placement *ring.Table[*Replica]

	rrSeq        uint64 // deterministic read-repair dice
	repairPeriod uint64 // every repairPeriod-th read repairs in the background; 0 never
	hintProcLive bool

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
	db := &DB{Env: replica.Env{K: k}, cfg: cfg}
	if len(nodes) > 0 {
		db.Cluster = nodes[0].Cluster()
	}
	for i, n := range nodes {
		rep := &Replica{}
		db.Adopt(&rep.Host, n, storage.NewEngine(k, cfg.Engine,
			storage.LocalIO{Disk: n.Disk},
			storage.DiskLog{Disk: n.Disk},
			k.Seed()^int64(i+101)))
		db.reps = append(db.reps, rep)
	}
	rng := k.Rand()
	db.ring = ring.New(db.reps, func(r *Replica) int { return r.Node.Zone }, ring.VNodes, rng.Uint64)
	db.placement = db.ring.Memoize(db.place)
	if cfg.ReadRepairChance > 0 {
		db.repairPeriod = max(1, uint64(1.0/cfg.ReadRepairChance))
	}
	return db
}

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

// rollRepair decides deterministically whether a read triggers background
// read repair, approximating an independent coin with P = ReadRepairChance.
func (db *DB) rollRepair() bool {
	if db.repairPeriod == 0 {
		return false
	}
	db.rrSeq++
	return db.rrSeq%db.repairPeriod == 0
}

// apply is the replica-side work of a mutation: the MutationStage wait,
// when one is modelled, then the shared host apply. src tells the oracle
// how the version reached rep (write fan-out, read repair, or hint replay).
//
//simlint:hotpath
func (db *DB) apply(p *sim.Proc, rep *replica.Host, m replica.Mutation, src consistency.ApplySource) {
	if d := db.cfg.MutationStageMeanDelay; d > 0 {
		mean := float64(d) * float64(db.cfg.Replication)
		p.Sleep(time.Duration(p.Rand().ExpFloat64() * mean))
	}
	rep.Apply(p, m, src, true)
}

// writeOp is one coordinator write, pooled (sim.Op): the Write every leg
// applies, the mutation around it and the ack plan its legs report to.
type writeOp struct {
	sim.Op[writeLeg]
	db    *DB
	coord *Replica
	w     storage.Write
	m     mutation
	acks  ackPlan
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
func (op *writeOp) newLeg() *writeLeg {
	l := &writeLeg{op: op}
	l.run = l.deliver
	return l
}

// leg hands out op's next leg, aimed from from at rep.
func (op *writeOp) leg(from *cluster.Node, rep *Replica) *writeLeg {
	l := op.Leg(op.newLeg)
	l.from, l.rep, l.relay = from, rep, l.relay[:0]
	return l
}

// release drops one hold on op; the last one returns it to the free list.
func (op *writeOp) release() {
	if op.Release() {
		// Replicas' memtables may hold the Write's cells: the next use
		// builds its own rather than reuse their capacity.
		op.w, op.m = storage.Write{}, mutation{}
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
	op := sim.Take(&db.writeOps)
	if op == nil {
		op = &writeOp{db: db}
	}
	op.Begin()
	op.coord = coord
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
	op.w = storage.Write{Rec: rec, Ver: db.Version()}
	op.m = mutation{replica.Mutation{Key: key, Write: &op.w, Del: del}, db.MutationSize(key, rec)}
	if db.Oracle != nil {
		db.Oracle.WriteBegin(key, op.m.Ver, len(replicas), db.K.Now())
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
				db.K.Go("c*-local-write", op.leg(coord.Node, rep).run)
			case z == coord.Node.Zone:
				db.K.Go("c*-repl-write", op.leg(coord.Node, rep).run)
			case fwd == nil:
				fwd = op.leg(coord.Node, rep)
			default:
				fwd.relay = append(fwd.relay, rep)
			}
		}
		if fwd != nil {
			db.InterDCForwards++
			db.K.Go("c*-fwd-write", fwd.run)
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
	if db.Oracle != nil {
		db.Oracle.WriteAck(key, op.m.Ver, db.K.Now())
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
	if !db.Hop(q, l.from, rep.Node, op.m.size) {
		for range 1 + len(l.relay) {
			op.acks.fail(z)
		}
	} else {
		for _, r := range l.relay {
			db.K.Go("c*-relay-write", op.leg(rep.Node, r).run)
		}
		db.apply(q, &rep.Host, op.m.Mutation, consistency.ApplyWrite)
		if db.Hop(q, rep.Node, op.coord.Node, replica.RequestOverhead) {
			op.acks.ack(z)
		} else {
			op.acks.fail(z)
		}
	}
	op.release()
}

// readOp is one coordinator read, pooled (sim.Op). Besides its legs, the
// background repair holds it. The slices are kept across uses, and so is the
// capacity of the scratch rows — each leg's fetch and the two
// reconciliations — and of the record a repair writes.
type readOp struct {
	sim.Op[readLeg]
	db    *DB
	coord *Replica
	key   kv.Key

	alive     []*Replica         // live replicas, proximity-sorted
	pool      []*Replica         // LOCAL_QUORUM's and EACH_QUORUM's contact set
	contacted []*Replica         // who the level made the coordinator wait for
	resps     []replica.Response // their answers

	// The repair in progress: the Write of the reconciled record (nil: a
	// delete), its version and tombstone, shared by every stale replica it
	// goes to. A read runs one at a time: the blocking one is over before
	// the background one is spawned. The record is projected into
	// repairRec, which only the repair legs — they hold the op — ever see:
	// Host.Apply keeps the Write's cells, not the record, and a repair
	// write leaves no hint.
	repair    storage.Write
	repairRec kv.Record
	// What blockingRepair and repairRest reconcile into. The blocking one
	// is the row the client is answered from, possibly while the background
	// one is being built.
	blockingRow, backgroundRow storage.Row

	background func(*sim.Proc) // repairRest, bound once
}

// readLeg is one process spawned for a readOp: a fetch of its host's row, or
// a repair write to it.
type readLeg struct {
	replica.FetchLeg
	op           *readOp
	repair       bool
	fetch, write func(*sim.Proc) // fetchRow and repairWrite, bound once
}

//simlint:coldpath
func (op *readOp) newLeg() *readLeg {
	l := &readLeg{op: op}
	l.Answer.Init(op.db.K)
	l.fetch, l.write = l.fetchRow, l.repairWrite
	return l
}

// leg hands out op's next leg, aimed at rep.
func (op *readOp) leg(rep *replica.Host, digestOnly, repair bool) *readLeg {
	l := op.Leg(op.newLeg)
	l.Host, l.Digest, l.repair = rep, digestOnly, repair
	return l
}

// release drops one hold on op; the last one forgets the rows and the
// record the read saw and returns it to the free list.
func (op *readOp) release() {
	if !op.Release() {
		return
	}
	for _, l := range op.Legs() {
		l.Answer.Init(op.db.K)
		l.Row.Reset()
	}
	op.blockingRow.Reset()
	op.backgroundRow.Reset()
	clear(op.resps)
	clear(op.repairRec)
	op.key, op.repair = "", storage.Write{}
	op.db.readOps = append(op.db.readOps, op)
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
	op, db := l.op, l.op.db
	var t0 sim.Time
	var prev any
	if l.repair {
		t0, prev = db.Mute(q)
	}
	l.Answer.Set(l.Host.Fetch(q, replica.Caller{Node: op.coord.Node}, op.key, l.Digest, &l.Row))
	if l.repair {
		db.Bill(q, trace.PhaseReadRepair, l.Host.Node, t0, prev, true)
	}
	op.release()
}

// read is the coordinator read path: a full data read from the main
// replica, digest reads from the next cl.Required-1 replicas, blocking
// read repair on digest mismatch, and probabilistic background repair
// across all replicas. It answers with the reconciled row (nil: no replica
// holds one) and the op that read it: the row may live in the op's scratch,
// so it is the caller's until the caller releases the op, which it must do on
// every path.
//
//simlint:hotpath
func (db *DB) read(p *sim.Proc, coord *Replica, key kv.Key, cl kv.ConsistencyLevel) (*readOp, *storage.Row, error) {
	op := sim.Take(&db.readOps)
	if op == nil {
		op = &readOp{db: db}
		op.background = op.repairRest
	}
	op.Begin()
	op.coord, op.key = coord, key
	row, err := op.coordinate(p, cl)
	return op, row, err
}

// coordinate is read on its op; the row it returns is valid while op is held.
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
		db.K.Go("c*-read", op.leg(&rep.Host, i != 0, false).fetch)
	}
	var err error
	if op.resps, err = replica.Await(p, db.cfg.Timeout, op.Legs(), op.resps[:0]); err == kv.ErrTimeout {
		db.CoordinatorTimeouts++
		return nil, err
	} else if err != nil {
		db.Unavails++
		return nil, err
	}

	dataRow := op.resps[0].Row
	dataVer := op.resps[0].Ver

	// Digest comparison → blocking read repair among contacted replicas.
	mismatch := false
	for _, r := range op.resps[1:] {
		if r.Ver != dataVer {
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
		if db.Tracer != nil {
			db.Tracer.Mark(p, trace.PhaseDigest, coord.Node.ID)
		}
		t0, prev := db.Mute(p)
		dataRow = op.blockingRepair(p, dataRow)
		db.Bill(p, trace.PhaseReadRepair, coord.Node, t0, prev, true)
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
		op.Hold()
		db.K.Go("c*-bg-repair", op.background)
	}
	return dataRow, nil
}

// blockingRepair fetches full rows from every contacted replica, merges
// them, writes the reconciled row back to stale replicas, and returns the
// merged row. The caller waits: this is Cassandra's foreground repair that
// delays the read.
func (op *readOp) blockingRepair(p *sim.Proc, have *storage.Row) *storage.Row {
	var buf [8]replica.Response
	resps := op.gather(p, op.contacted, nil, false, buf[:0])
	// The original data read from the main replica is folded last: it can
	// only matter when the main replica's refetch was lost in flight.
	merged := storage.Merged(replica.Reconcile(resps, &op.blockingRow), have, &op.blockingRow)
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
	var buf [8]replica.Response
	resps := op.gather(q, op.alive, op.contacted, true, append(buf[:0], op.resps...))
	op.writeRepairs(q, replica.Reconcile(resps, &op.backgroundRow), resps, false)
	op.release()
}

// gather fetches the full row from every one of reps not in skip, all at
// once, and appends the answers that arrive to resps.
func (op *readOp) gather(p *sim.Proc, reps, skip []*Replica, repair bool, resps []replica.Response) []replica.Response {
	first := len(op.Legs())
	for _, rep := range reps {
		if !slices.Contains(skip, rep) {
			op.db.K.Go("c*-read", op.leg(&rep.Host, false, repair).fetch)
		}
	}
	for _, l := range op.Legs()[first:] {
		if r := l.Answer.Await(p); r.OK {
			resps = append(resps, r)
		}
	}
	return resps
}

// writeRepairs sends the reconciled row to every responder whose version
// lags; the record is built only once one does. When wait is true the
// caller, the coordinator, blocks until the repairs finish: every other leg
// of the read has finished by then, and the background repair is not yet
// spawned.
func (op *readOp) writeRepairs(p *sim.Proc, merged *storage.Row, resps []replica.Response, wait bool) {
	if merged == nil {
		return
	}
	target := merged.Version()
	if target == 0 {
		return
	}
	first := len(op.Legs())
	for _, r := range resps {
		if r.Ver >= target {
			continue
		}
		if len(op.Legs()) == first {
			// A dead row's version is its tombstone's. A live one's
			// tombstone goes too, or the cells it shadows come back.
			rec := merged.ProjectInto(nil, op.repairRec)
			if rec != nil {
				op.repairRec = rec
			}
			op.repair = storage.Write{Rec: rec, Ver: target, Tomb: merged.Tomb}
		}
		op.db.RepairWrites++
		op.db.K.Go("c*-repair-write", op.leg(r.Host, false, false).write)
	}
	if wait {
		op.AwaitLegs(p)
	}
}

// repairWrite is one repair write's process. It is billed as a read-repair
// leg; under a blocking repair the caller already muted the context and
// holds the composite span, so the span is dropped there and only
// background repair records per leg.
//
//simlint:hotpath
func (l *readLeg) repairWrite(q *sim.Proc) {
	op, db, rep, coord := l.op, l.op.db, l.Host, l.op.coord.Node
	t0, prev := db.Mute(q)
	if rep.Node == coord || coord.SendTo(q, rep.Node, db.MutationSize(op.key, op.repair.Rec)) {
		db.apply(q, rep, replica.Mutation{Key: op.key, Write: &op.repair, Del: op.repair.Rec == nil}, consistency.ApplyRepair)
		if rep.Node != coord {
			rep.Node.SendTo(q, coord, replica.RequestOverhead)
		}
	}
	db.Bill(q, trace.PhaseReadRepair, rep.Node, t0, prev, true)
	op.release()
}

// noteHint stores m at the coordinator on behalf of the down replica target
// and ensures the replay process is running. The process exits when all
// hints have drained, so simulations with no failed nodes terminate
// cleanly.
func (db *DB) noteHint(coord, target *Replica, m mutation) {
	w := *m.Write
	m.Write = &w
	coord.hints = append(coord.hints, hint{target: target, mutation: m, stored: db.K.Now()})
	db.HintsStored++
	if !db.hintProcLive {
		db.hintProcLive = true
		db.K.Go("hint-replayer", db.hintReplayLoop)
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
	if db.Tracer != nil {
		db.Tracer.Detach(p)
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
				t0, prev := db.Mute(p)
				if !rep.Node.SendTo(p, h.target.Node, h.size) {
					db.Bill(p, trace.PhaseHintReplay, h.target.Node, t0, prev, false)
					keep = append(keep, h)
					continue
				}
				db.apply(p, &h.target.Host, h.Mutation, consistency.ApplyHint)
				h.target.Node.SendTo(p, rep.Node, replica.RequestOverhead)
				db.Bill(p, trace.PhaseHintReplay, h.target.Node, t0, prev, true)
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
