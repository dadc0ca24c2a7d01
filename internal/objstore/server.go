// Package objstore implements a Swift-style eventually consistent object
// store on the simulated cluster: the asynchronous end of the replication
// spectrum the paper leaves unmeasured. A consistent-hash ring with
// virtual nodes maps every key to a partition and every partition to a
// fixed replica set; object servers acknowledge a write after a single
// local durable apply (W=1) and replicate to the other RF−1 replicas
// through per-node asynchronous job queues with capped-backoff retries and
// hint-style updater spillover; a periodic anti-entropy replicator walks
// partitions exchanging version digests and pushing missing versions, the
// mechanism that bounds t-visibility when async jobs are lost. The design
// follows OpenStack Swift as modeled by iqiyi/auklet (async_job_mgr,
// updater, replicator), scaled onto the shared simulation primitives.
//
// Contrast with Cassandra at CL=ONE, which this backend superficially
// resembles: CL=ONE still fans the mutation out to every replica
// synchronously in the request path and waits for one ack — the write's
// cost grows with RF, and the unacked replicas are already in flight when
// the client resumes. Here the ack path touches exactly one server
// regardless of RF; the other replicas learn about the write strictly
// after the ack, on a background process. That decouples write latency
// from the replication factor at the price of a wider, explicitly
// asynchronous visibility window — the trade the spectrum experiment
// measures.
package objstore

import (
	"time"

	"cloudbench/internal/cluster"
	"cloudbench/internal/consistency"
	"cloudbench/internal/kv"
	"cloudbench/internal/sim"
	"cloudbench/internal/storage"
	"cloudbench/internal/trace"
)

// ReadMode selects the client read policy.
type ReadMode int

const (
	// ReadOne reads from a single replica, rotating across the live
	// replica set per client (Swift proxies load-balance object GETs), so
	// a client can observe a replica the async replication has not
	// reached yet.
	ReadOne ReadMode = iota
	// ReadQuorumFresh reads from a majority of the replica set and
	// returns the freshest reconciled version — what Swift deployments
	// approximate with read affinity plus object versioning, and the
	// policy that lets the oracle compare ack semantics against what a
	// quorum-reading client actually observes.
	ReadQuorumFresh
)

func (m ReadMode) String() string {
	if m == ReadQuorumFresh {
		return "read-quorum"
	}
	return "read-one"
}

// Config parameterizes the object store.
type Config struct {
	// Replication is the ring's replica count per partition.
	Replication int
	// VNodes is the number of virtual-node tokens per server.
	VNodes int
	// PartPower sets the partition count to 2^PartPower (Swift's
	// part_power).
	PartPower uint
	// TopologyAware spreads each partition's replicas across zones before
	// doubling up in any one, mirroring Swift's as-unique-as-possible
	// placement. With a single zone it is a no-op.
	TopologyAware bool
	// ReadMode is the default client read policy.
	ReadMode ReadMode
	// Engine configures each server's storage. SyncWAL stays true: the
	// W=1 ack promises a durable local copy, which is the entire promise.
	Engine storage.Config
	// RequestOverhead is the fixed per-message overhead in bytes.
	RequestOverhead int
	// Timeout bounds how long a client waits for read responses.
	Timeout time.Duration
	// AsyncQueueCap bounds each server's async replication job queue;
	// jobs arriving beyond it spill to the updater's pending set (auklet
	// writes them to the async-pending directory).
	AsyncQueueCap int
	// AsyncWorkers bounds each server's concurrent job deliveries (the
	// job manager's worker pool): one WAL-synced remote apply at a time
	// cannot keep up with a saturating write load.
	AsyncWorkers int
	// AsyncRetryBase and AsyncRetryMax shape the capped exponential
	// backoff between delivery attempts to an unreachable target.
	AsyncRetryBase time.Duration
	AsyncRetryMax  time.Duration
	// AsyncMaxAttempts is how many deliveries a job tries before spilling
	// to the updater.
	AsyncMaxAttempts int
	// ReplicatorInterval is the anti-entropy pass period; 0 disables the
	// replicator (async jobs and the updater then carry all repair).
	ReplicatorInterval time.Duration
}

// DefaultConfig returns a Swift-shaped configuration at replication
// factor 3.
func DefaultConfig() Config {
	return Config{
		Replication:        3,
		VNodes:             16,
		PartPower:          6,
		ReadMode:           ReadOne,
		Engine:             storage.DefaultConfig(),
		RequestOverhead:    64,
		Timeout:            5 * time.Second,
		AsyncQueueCap:      256,
		AsyncWorkers:       8,
		AsyncRetryBase:     50 * time.Millisecond,
		AsyncRetryMax:      time.Second,
		AsyncMaxAttempts:   4,
		ReplicatorInterval: time.Second,
	}
}

// Server is one object server: a cluster node, its local storage, its
// async replication job queue, and the partition→version index the
// anti-entropy replicator exchanges digests from (Swift's hashes.pkl).
type Server struct {
	Node   *cluster.Node
	engine *storage.Engine

	jobs    *sim.Queue[job]
	workers int             // live drain workers, ≤ Config.AsyncWorkers
	pending []job           // updater spillover: jobs awaiting a recovered target
	drain   func(*sim.Proc) // jobWorker body, built once: enqueue runs per acked write

	index map[int]map[kv.Key]kv.Version // partition → key → newest local version
}

// Engine exposes the server's storage engine for inspection.
func (s *Server) Engine() *storage.Engine { return s.engine }

// DB is one object-store deployment.
type DB struct {
	k    *sim.Kernel
	cfg  Config
	cl   *cluster.Cluster
	srvs []*Server
	ring partTable

	nextVersion kv.Version
	stopped     bool

	oracle *consistency.Oracle
	tracer *trace.Tracer

	// Metrics.
	Reads, Writes, ScansDone       int64
	HandoffWrites, Unavails        int64
	AsyncJobsRun, JobRetries       int64
	JobsSpilled, UpdaterReplays    int64
	AntiEntropyPasses, DigestsSent int64
	AntiEntropyPushes              int64
}

// New builds an object store over the given server nodes. The ring is
// derived from the kernel's seed stream, so placement is a pure function
// of (topology, seed). With a positive ReplicatorInterval the anti-entropy
// daemon starts immediately; call Stop when driving is done so it exits.
func New(k *sim.Kernel, cfg Config, nodes []*cluster.Node) *DB {
	if cfg.Replication < 1 {
		cfg.Replication = 1
	}
	if cfg.Replication > len(nodes) {
		cfg.Replication = len(nodes)
	}
	if cfg.VNodes < 1 {
		cfg.VNodes = 1
	}
	if cfg.AsyncWorkers < 1 {
		cfg.AsyncWorkers = 1
	}
	db := &DB{k: k, cfg: cfg}
	if len(nodes) > 0 {
		db.cl = nodes[0].Cluster()
	}
	for i, n := range nodes {
		s := &Server{
			Node:  n,
			jobs:  sim.NewQueue[job](k),
			index: make(map[int]map[kv.Key]kv.Version),
		}
		s.engine = storage.NewEngine(k, cfg.Engine,
			storage.LocalIO{Disk: n.Disk},
			storage.DiskLog{Disk: n.Disk},
			k.Seed()^int64(i+211))
		db.srvs = append(db.srvs, s)
	}
	rng := k.Rand()
	db.ring = buildPartTable(db.srvs, cfg.VNodes, cfg.PartPower, cfg.TopologyAware, cfg.Replication, rng.Uint64)
	if cfg.ReplicatorInterval > 0 {
		db.k.Go("o*-replicator", db.replicatorLoop)
	}
	return db
}

// Stop makes the anti-entropy replicator exit at its next wakeup so the
// kernel can drain; experiments call it when the driver finishes.
func (db *DB) Stop() { db.stopped = true }

// SetOracle attaches a consistency oracle. Pass nil (the default) to run
// unobserved; every hook call site is nil-gated. The attaching experiment
// should declare consistency.AckAsync on the oracle: this database's acks
// promise one durable copy, not a replicated one.
func (db *DB) SetOracle(o *consistency.Oracle) { db.oracle = o }

// Oracle returns the attached consistency oracle, if any.
func (db *DB) Oracle() *consistency.Oracle { return db.oracle }

// SetTracer attaches a request tracer; nil (the default) runs untraced
// with every call site nil-gated.
func (db *DB) SetTracer(t *trace.Tracer) {
	db.tracer = t
	for _, s := range db.srvs {
		node := s.Node
		if t == nil {
			s.engine.OnWALSync = nil
			continue
		}
		s.engine.OnWALSync = func(p *sim.Proc, start sim.Time) {
			t.Phase(p, trace.PhaseWAL, node.ID, start)
		}
	}
}

// Tracer returns the attached tracer, if any.
func (db *DB) Tracer() *trace.Tracer { return db.tracer }

// Servers returns the deployment's object servers.
func (db *DB) Servers() []*Server { return db.srvs }

// PartitionOf maps a key to its ring partition.
func (db *DB) PartitionOf(key kv.Key) int { return db.ring.partition(key) }

// PlacementFor returns the replica set of key's partition, primary first.
func (db *DB) PlacementFor(key kv.Key) []*Server {
	return db.ring.placement(db.ring.partition(key))
}

// HandoffFor returns the handoff order of key's partition.
func (db *DB) HandoffFor(key kv.Key) []*Server {
	return db.ring.handoff(db.ring.partition(key))
}

// writeTarget picks where a write of part lands: the first live placement
// member, else the first live handoff server (inPlacement false). A nil
// server means the partition is wholly unreachable.
func (db *DB) writeTarget(part int) (s *Server, inPlacement bool) {
	for _, cand := range db.ring.placement(part) {
		if !cand.Node.Down() {
			return cand, true
		}
	}
	for _, cand := range db.ring.handoff(part) {
		if !cand.Node.Down() {
			return cand, false
		}
	}
	return nil, false
}

// execServer charges server CPU for one client-facing request. With a
// tracer attached it splits the time into queueing (CPU-slot wait +
// stop-the-world pause) and service phases, like the other backends'
// coordinators.
func (db *DB) execServer(p *sim.Proc, n *cluster.Node, cost time.Duration) {
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

// version issues the next write timestamp. Versions are unique today (one
// counter), but replica reconciliation still folds in ascending node-id
// order so a tie could never become order-dependent — see reconcile.
func (db *DB) version() kv.Version {
	db.nextVersion++
	return kv.Version(db.k.Now()) + db.nextVersion
}

// mutationSize models the wire size of a mutation.
func (db *DB) mutationSize(key kv.Key, rec kv.Record) int {
	return rec.Bytes() + len(key) + db.cfg.RequestOverhead
}

// noteVersion records the newest locally held version of key for digest
// exchange. Pure bookkeeping: the real system derives this from its
// on-disk hashes as a side effect of the apply it already did.
func (s *Server) noteVersion(db *DB, key kv.Key, ver kv.Version) {
	part := db.ring.partition(key)
	m := s.index[part]
	if m == nil {
		m = make(map[kv.Key]kv.Version)
		s.index[part] = m
	}
	if ver > m[key] {
		m[key] = ver
	}
}

// localVersion returns the newest version of key this server holds, or 0.
func (s *Server) localVersion(part int, key kv.Key) kv.Version {
	return s.index[part][key]
}

// applyLocal performs the server-side work of one mutation: CPU, durable
// WAL append, memtable apply, and the version-index update. report gates
// the oracle hook: applies on placement members advance the write's
// visibility, while a handoff server's local copy is a stand-in the
// oracle must not count as a replica.
func (s *Server) applyLocal(p *sim.Proc, db *DB, key kv.Key, rec kv.Record, del bool, ver kv.Version, src consistency.ApplySource, report bool) {
	cost := db.cl.Config.InternalOpCost
	if cost <= 0 {
		cost = db.cl.Config.CPUOpCost
	}
	var t0 sim.Time
	if db.tracer != nil {
		t0 = p.Now()
	}
	s.Node.Exec(p, cost)
	if del {
		s.engine.ApplyDelete(p, key, ver)
	} else {
		s.engine.Apply(p, key, rec, ver)
	}
	s.noteVersion(db, key, ver)
	if db.tracer != nil {
		db.tracer.Phase(p, trace.PhaseStorage, s.Node.ID, t0)
	}
	if db.oracle != nil {
		if report {
			db.oracle.ReplicaApply(key, ver, s.Node.ID, src, p.Now())
		}
	}
}

// write is the W=1 server-side write path, executed by the client's
// process at the chosen server: apply durably here, ack, and leave the
// other replicas to the async job manager. When the chosen server is a
// handoff stand-in, its local copy is oracle-invisible and the queued
// jobs count as hint deliveries.
func (db *DB) write(p *sim.Proc, s *Server, inPlacement bool, key kv.Key, rec kv.Record, del bool) {
	part := db.ring.partition(key)
	placement := db.ring.placement(part)
	ver := db.version()
	if db.oracle != nil {
		db.oracle.WriteBegin(key, ver, len(placement), db.k.Now())
	}
	src := consistency.ApplyWrite
	if !inPlacement {
		src = consistency.ApplyHint
		db.HandoffWrites++
	}
	s.applyLocal(p, db, key, rec, del, ver, src, inPlacement)
	for _, peer := range placement {
		if peer == s {
			continue
		}
		s.enqueue(db, job{key: key, rec: rec, del: del, ver: ver, target: peer, src: src})
	}
	if db.oracle != nil {
		db.oracle.WriteAck(key, ver, db.k.Now())
	}
}

// FlushAll forces every server's memtable to flush (between benchmark
// phases).
func (db *DB) FlushAll() {
	for _, s := range db.srvs {
		s.engine.ForceFlush()
	}
}

// Engines returns the per-server engines for metric collection.
func (db *DB) Engines() []*storage.Engine {
	es := make([]*storage.Engine, len(db.srvs))
	for i, s := range db.srvs {
		es[i] = s.engine
	}
	return es
}

// PendingJobs reports queued plus spilled replication jobs across all
// servers (diagnostic).
func (db *DB) PendingJobs() int {
	n := 0
	for _, s := range db.srvs {
		n += s.jobs.Len() + len(s.pending)
	}
	return n
}
