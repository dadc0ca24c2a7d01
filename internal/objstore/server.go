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
	"cloudbench/internal/replica"
	"cloudbench/internal/sim"
	"cloudbench/internal/storage"
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
	// ReadMode is the default client read policy.
	ReadMode ReadMode
	// Engine configures each server's storage. SyncWAL stays true: the
	// W=1 ack promises a durable local copy, which is the entire promise.
	Engine storage.Config
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
	// ReplicatorInterval is the anti-entropy pass period; 0 disables the
	// replicator (async jobs and the updater then carry all repair).
	ReplicatorInterval time.Duration
}

// DefaultConfig returns a Swift-shaped configuration at replication
// factor 3.
func DefaultConfig() Config {
	return Config{
		Replication:        3,
		ReadMode:           ReadOne,
		Engine:             storage.DefaultConfig(),
		Timeout:            5 * time.Second,
		AsyncQueueCap:      256,
		AsyncWorkers:       8,
		ReplicatorInterval: time.Second,
	}
}

// Server is one object server: a cluster node, its local storage, its
// async replication job queue, and the partition→version index the
// anti-entropy replicator exchanges digests from (Swift's hashes.pkl).
type Server struct {
	replica.Host

	jobs    *sim.Queue[job]
	workers int             // live drain workers, ≤ Config.AsyncWorkers
	pending []job           // updater spillover: jobs awaiting a recovered target
	drain   func(*sim.Proc) // jobWorker body, built once: enqueue runs per acked write

	index map[int]map[kv.Key]kv.Version // partition → key → newest local version
}

// DB is one object-store deployment. An experiment that attaches an oracle
// (SetOracle) should declare consistency.AckAsync on it: this database's
// acks promise one durable copy, not a replicated one.
type DB struct {
	replica.Env
	cfg  Config
	srvs []*Server
	ring partTable

	stopped bool
	readOps []*readOp // free list; one kernel runs one process at a time

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
	if cfg.AsyncWorkers < 1 {
		cfg.AsyncWorkers = 1
	}
	db := &DB{Env: replica.Env{K: k}, cfg: cfg}
	if len(nodes) > 0 {
		db.Cluster = nodes[0].Cluster()
	}
	for i, n := range nodes {
		s := &Server{
			jobs:  sim.NewQueue[job](k),
			index: make(map[int]map[kv.Key]kv.Version),
		}
		db.Adopt(&s.Host, n, storage.NewEngine(k, cfg.Engine,
			storage.LocalIO{Disk: n.Disk},
			storage.DiskLog{Disk: n.Disk},
			k.Seed()^int64(i+211)))
		db.srvs = append(db.srvs, s)
	}
	rng := k.Rand()
	db.ring = buildPartTable(db.srvs, cfg.Replication, rng.Uint64)
	if cfg.ReplicatorInterval > 0 {
		db.K.Go("o*-replicator", db.replicatorLoop)
	}
	return db
}

// Stop makes the anti-entropy replicator exit at its next wakeup so the
// kernel can drain; experiments call it when the driver finishes.
func (db *DB) Stop() { db.stopped = true }

// PartitionOf maps a key to its ring partition.
func (db *DB) PartitionOf(key kv.Key) int { return db.ring.partition(key) }

// PlacementFor returns the replica set of key's partition, primary first.
func (db *DB) PlacementFor(key kv.Key) []*Server {
	return db.ring.placement(db.ring.partition(key))
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

// apply is the server-side work of one mutation — the shared host apply —
// plus the version-index update. report gates the oracle hook: applies on
// placement members advance the write's visibility, while a handoff
// server's local copy is a stand-in the oracle must not count as a replica.
func (s *Server) apply(p *sim.Proc, db *DB, m replica.Mutation, src consistency.ApplySource, report bool) {
	s.Apply(p, m, src, report)
	s.noteVersion(db, m.Key, m.Ver)
}

// write is the W=1 server-side write path, executed by the client's
// process at the chosen server: apply durably here, ack, and leave the
// other replicas to the async job manager. When the chosen server is a
// handoff stand-in, its local copy is oracle-invisible and the queued
// jobs count as hint deliveries.
func (db *DB) write(p *sim.Proc, s *Server, inPlacement bool, key kv.Key, rec kv.Record, del bool) {
	part := db.ring.partition(key)
	placement := db.ring.placement(part)
	// One Write for the local apply and every job: the replicas' memtables
	// share its cells.
	m := replica.Mutation{Key: key, Write: &storage.Write{Rec: rec, Ver: db.Version()}, Del: del}
	if db.Oracle != nil {
		db.Oracle.WriteBegin(key, m.Ver, len(placement), db.K.Now())
	}
	src := consistency.ApplyWrite
	if !inPlacement {
		src = consistency.ApplyHint
		db.HandoffWrites++
	}
	s.apply(p, db, m, src, inPlacement)
	for _, peer := range placement {
		if peer == s {
			continue
		}
		s.enqueue(db, job{Mutation: m, target: peer, src: src})
	}
	if db.Oracle != nil {
		db.Oracle.WriteAck(key, m.Ver, db.K.Now())
	}
}
