package objstore

import (
	"slices"
	"sort"

	"cloudbench/internal/consistency"
	"cloudbench/internal/kv"
	"cloudbench/internal/sim"
	"cloudbench/internal/trace"
)

// The anti-entropy replicator, after Swift's object-replicator as modeled
// by auklet: a periodic daemon that walks every live server's partitions,
// exchanges a per-partition version digest with each peer replica, and
// pushes the versions the peer is missing. Async jobs deliver almost all
// replication in a healthy cluster; the replicator is what bounds
// t-visibility when jobs are lost, spilled, or their target was down —
// its interval is the eventual-consistency knob the spectrum experiment
// sweeps. Each pass also runs the updater sweep, retrying spilled jobs
// whose targets have recovered.

// replicatorLoop is the anti-entropy daemon. It detaches from whatever
// spawned it (deployment setup) so its work bills to the background
// class, and exits at the first wakeup after Stop.
func (db *DB) replicatorLoop(p *sim.Proc) {
	if db.tracer != nil {
		db.tracer.Detach(p)
	}
	for !db.stopped {
		p.Sleep(db.cfg.ReplicatorInterval)
		if db.stopped {
			return
		}
		db.replicatePass(p)
	}
}

// replicatePass is one full anti-entropy cycle over every live server.
func (db *DB) replicatePass(p *sim.Proc) {
	db.AntiEntropyPasses++
	for _, s := range db.srvs {
		if s.Node.Down() {
			continue
		}
		db.drainPending(p, s)
		for _, part := range s.sortedParts() {
			for _, peer := range db.ring.placement(part) {
				if peer == s || peer.Node.Down() {
					continue
				}
				db.syncPartition(p, s, peer, part)
			}
		}
	}
}

// drainPending is the updater sweep: retry every spilled job whose target
// is reachable again, keeping the rest for the next pass.
func (db *DB) drainPending(p *sim.Proc, s *Server) {
	if len(s.pending) == 0 {
		return
	}
	var keep []job
	for _, j := range s.pending {
		if db.deliver(p, s, j) {
			db.UpdaterReplays++
		} else {
			keep = append(keep, j)
		}
	}
	s.pending = keep
}

// sortedParts returns the partitions this server holds data for, in
// ascending order — map iteration must never leak into the event stream.
func (s *Server) sortedParts() []int {
	parts := make([]int, 0, len(s.index))
	for part := range s.index {
		parts = append(parts, part)
	}
	sort.Ints(parts)
	return parts
}

// sortedKeys returns m's keys in ascending order.
func sortedKeys(m map[kv.Key]kv.Version) []kv.Key {
	keys := make([]kv.Key, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	return keys
}

// syncPartition pushes one partition from s to peer: send the version
// digest, learn which keys the peer is missing or holds stale, and push
// those versions. The whole exchange records as one composite
// anti-entropy span with its internal legs muted.
func (db *DB) syncPartition(p *sim.Proc, s, peer *Server, part int) {
	local := s.index[part]
	if len(local) == 0 {
		return
	}
	keys := sortedKeys(local)

	var t0 sim.Time
	var prev any
	if db.tracer != nil {
		t0 = p.Now()
		prev = db.tracer.Mute(p)
	}
	done := func(record bool) {
		if db.tracer != nil {
			db.tracer.Unmute(p, prev)
			if record {
				db.tracer.Interval(p, trace.PhaseAntiEntropy, peer.Node.ID, t0, p.Now())
			}
		}
	}

	// Digest request: (key, version) pairs for everything held locally.
	digestSize := db.cfg.RequestOverhead
	for _, k := range keys {
		digestSize += len(k) + 8
	}
	db.DigestsSent++
	if !s.Node.SendTo(p, peer.Node, digestSize) {
		done(false)
		return
	}
	cost := db.cl.Config.InternalOpCost
	if cost <= 0 {
		cost = db.cl.Config.CPUOpCost
	}
	peer.Node.Exec(p, cost)
	var missing []kv.Key
	respSize := db.cfg.RequestOverhead
	for _, k := range keys {
		if peer.localVersion(part, k) < local[k] {
			missing = append(missing, k)
			respSize += len(k) + 8
		}
	}
	if !peer.Node.SendTo(p, s.Node, respSize) {
		done(false)
		return
	}

	// Push every missing version: local read, network, remote apply.
	for _, k := range missing {
		row := s.engine.Get(p, k)
		if row == nil {
			continue
		}
		rec := row.Record()
		del := rec == nil
		ver := row.Version()
		if !s.Node.SendTo(p, peer.Node, db.mutationSize(k, rec)) {
			break
		}
		peer.applyLocal(p, db, k, rec, del, ver, consistency.ApplyRepair, true)
		db.AntiEntropyPushes++
	}
	done(true)
}
