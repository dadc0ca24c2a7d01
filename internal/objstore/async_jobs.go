package objstore

import (
	"time"

	"cloudbench/internal/consistency"
	"cloudbench/internal/replica"
	"cloudbench/internal/sim"
	"cloudbench/internal/trace"
)

// The async job manager, after auklet's async_job_mgr: every acked write
// enqueues one replication job per remote replica on the accepting
// server's bounded queue. A lazily spawned pool of up to AsyncWorkers
// per-server workers drains the queue in FIFO claim order (the real
// manager runs a worker pool per device — a single serial drainer would
// bottleneck replication behind one WAL-synced apply at a time), retrying
// unreachable targets with capped exponential backoff; jobs that exhaust
// their attempts — and jobs arriving while the queue is full — spill to
// the server's pending set, which the updater sweep (piggybacked on the
// anti-entropy replicator, like auklet's updater walking the
// async-pending directory) retries once the target is back.

// The retry schedule of a delivery to an unreachable target: capped
// exponential backoff from asyncRetryBase, and a spill to the updater after
// asyncMaxAttempts deliveries.
const (
	asyncRetryBase   = 50 * time.Millisecond
	asyncRetryMax    = time.Second
	asyncMaxAttempts = 4
)

// job is one pending replication of a single mutation to one target.
type job struct {
	replica.Mutation
	target   *Server
	src      consistency.ApplySource
	attempts int
}

// enqueue adds a replication job to the server's queue, spilling to the
// updater when the queue is at capacity, and grows the drain-worker pool
// up to AsyncWorkers while there is a backlog. Workers exit when the
// queue empties, so idle deployments terminate cleanly.
func (s *Server) enqueue(db *DB, j job) {
	if s.jobs.Len() >= db.cfg.AsyncQueueCap {
		db.JobsSpilled++
		j.src = consistency.ApplyHint
		s.pending = append(s.pending, j)
		return
	}
	s.jobs.Push(j)
	if s.workers < db.cfg.AsyncWorkers && s.workers < s.jobs.Len() {
		s.workers++
		if s.drain == nil {
			// Built once per server rather than per spawn: enqueue sits on
			// every acked write, and the stored closure spares a per-write
			// allocation while keeping spawn order (hence determinism)
			// identical.
			s.drain = func(p *sim.Proc) { db.jobWorker(p, s) }
		}
		db.K.Go("o*-async-jobs", s.drain)
	}
}

// jobWorker drains one server's job queue. It is spawned from whichever
// write queued a job past the live workers' reach; detach so its
// long-lived deliveries bill to the background class, not to that op.
func (db *DB) jobWorker(p *sim.Proc, s *Server) {
	defer func() { s.workers-- }()
	if db.Tracer != nil {
		db.Tracer.Detach(p)
	}
	for {
		j, ok := s.jobs.TryPop()
		if !ok {
			return
		}
		db.runJob(p, s, j)
	}
}

// runJob delivers one job, retrying with capped backoff while the target
// is unreachable and spilling to the updater when attempts are exhausted.
func (db *DB) runJob(p *sim.Proc, s *Server, j job) {
	for {
		if db.deliver(p, s, j) {
			db.AsyncJobsRun++
			return
		}
		j.attempts++
		if j.attempts >= asyncMaxAttempts {
			db.JobsSpilled++
			j.src = consistency.ApplyHint
			s.pending = append(s.pending, j)
			return
		}
		db.JobRetries++
		p.Sleep(min(asyncRetryBase<<(j.attempts-1), asyncRetryMax))
	}
}

// deliver pushes one mutation to the job's target, recording the delivery
// as one composite async-job span with its network and storage legs
// muted. It returns false when the target is unreachable.
func (db *DB) deliver(p *sim.Proc, s *Server, j job) bool {
	if j.target.Node.Down() {
		return false
	}
	t0, prev := db.Mute(p)
	ok := s.Node.SendTo(p, j.target.Node, db.MutationSize(j.Key, j.Rec))
	if ok {
		j.target.apply(p, db, j.Mutation, j.src, true)
		// The ack leg is best-effort: the apply already happened, so a
		// source that died mid-ack does not undeliver the job.
		j.target.Node.SendTo(p, s.Node, replica.RequestOverhead)
	}
	db.Bill(p, trace.PhaseAsyncJob, j.target.Node, t0, prev, ok)
	return ok
}
