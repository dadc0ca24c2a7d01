package objstore

import (
	"slices"
	"sort"

	"cloudbench/internal/consistency"
	"cloudbench/internal/kv"
	"cloudbench/internal/replica"
	"cloudbench/internal/sim"
	"cloudbench/internal/storage"
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
	if db.Tracer != nil {
		db.Tracer.Detach(p)
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
	// Filter in place; jobs spilled here while this sweep is blocked in a
	// delivery land past all and are carried over.
	all := s.pending
	keep := all[:0]
	for _, j := range all {
		if db.deliver(p, s, j) {
			db.UpdaterReplays++
		} else {
			keep = append(keep, j)
		}
	}
	s.pending = append(keep, s.pending[len(all):]...)
	if n := len(s.pending); n < len(all) {
		clear(all[n:]) // replayed jobs' records are collectable
	}
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

	t0, prev := db.Mute(p)
	done := func(record bool) { db.Bill(p, trace.PhaseAntiEntropy, peer.Node, t0, prev, record) }

	// Digest request: (key, version) pairs for everything held locally.
	digestSize := replica.RequestOverhead
	for _, k := range keys {
		digestSize += len(k) + 8
	}
	db.DigestsSent++
	if !s.Node.SendTo(p, peer.Node, digestSize) {
		done(false)
		return
	}
	peer.Node.Exec(p, db.Cluster.Config.InternalCost())
	var missing []kv.Key
	respSize := replica.RequestOverhead
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
		row := s.Engine.Get(p, k)
		if row == nil {
			continue
		}
		// The tombstone goes with the live cells, or the cells it shadows
		// come back on the peer.
		rec := row.Record()
		m := replica.Mutation{Key: k, Write: &storage.Write{Rec: rec, Ver: row.Version(), Tomb: row.Tomb}, Del: rec == nil}
		if !s.Node.SendTo(p, peer.Node, db.MutationSize(k, rec)) {
			break
		}
		peer.apply(p, db, m, consistency.ApplyRepair, true)
		db.AntiEntropyPushes++
	}
	done(true)
}
