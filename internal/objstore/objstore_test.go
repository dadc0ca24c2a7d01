package objstore

import (
	"fmt"
	"reflect"
	"testing"
	"time"

	"cloudbench/internal/cluster"
	"cloudbench/internal/consistency"
	"cloudbench/internal/kv"
	"cloudbench/internal/replica"
	"cloudbench/internal/sim"
	"cloudbench/internal/storage"
	"cloudbench/internal/trace"
)

// testDB builds object servers on nodes 0..n-2 and a client on the last
// node.
func testDB(k *sim.Kernel, servers, rf int, mutate func(*Config)) (*DB, *Client, *cluster.Cluster) {
	ccfg := cluster.DefaultConfig()
	ccfg.Nodes = servers + 1
	c := cluster.New(k, ccfg)
	cfg := DefaultConfig()
	cfg.Replication = rf
	if mutate != nil {
		mutate(&cfg)
	}
	db := New(k, cfg, c.Nodes[:servers])
	return db, db.NewClient(c.Nodes[servers]), c
}

func key(i int) kv.Key { return kv.Key(fmt.Sprintf("user%08d", i)) }

func rec(s string) kv.Record { return kv.Record{"f0": kv.ByteValue([]byte(s))} }

// TestAsyncReplicationConverges: a write is acked after one durable apply
// and the remaining replicas catch up through the async job queue — after
// the kernel drains, every placement member holds the same version.
func TestAsyncReplicationConverges(t *testing.T) {
	k := sim.NewKernel(3)
	db, c, _ := testDB(k, 5, 3, nil)
	const writes = 20
	k.Spawn("driver", func(p *sim.Proc) {
		for i := 0; i < writes; i++ {
			if err := c.Insert(p, key(i), rec("v")); err != nil {
				t.Errorf("insert %d: %v", i, err)
			}
		}
		// Let the async jobs deliver, then stop the replicator daemon so
		// the kernel can drain.
		p.Sleep(2 * time.Second)
		db.Stop()
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < writes; i++ {
		placement := db.PlacementFor(key(i))
		want := placement[0].localVersion(db.PartitionOf(key(i)), key(i))
		if want == 0 {
			t.Fatalf("key %d: primary has no version", i)
		}
		for _, s := range placement[1:] {
			if got := s.localVersion(db.PartitionOf(key(i)), key(i)); got != want {
				t.Errorf("key %d: replica node %d version %d, want %d", i, s.Node.ID, got, want)
			}
		}
	}
	if db.AsyncJobsRun != writes*2 {
		t.Errorf("AsyncJobsRun = %d, want %d (RF-1 per write)", db.AsyncJobsRun, writes*2)
	}
	if db.PendingJobs() != 0 {
		t.Errorf("PendingJobs = %d after drain, want 0", db.PendingJobs())
	}
}

// TestDrainClosureHoisted: the per-server drain closure is built exactly
// once and reused across worker spawns — enqueue sits on every acked
// write, so a fresh closure per spawn would put an allocation back on the
// write path (the regression this test pins). Replication behavior must
// be unchanged: all jobs still run.
func TestDrainClosureHoisted(t *testing.T) {
	k := sim.NewKernel(11)
	db, c, _ := testDB(k, 5, 3, func(cfg *Config) { cfg.AsyncWorkers = 2 })
	var firstDrain func(*sim.Proc)
	const writes = 50
	k.Spawn("driver", func(p *sim.Proc) {
		for i := 0; i < writes; i++ {
			if err := c.Insert(p, key(i), rec("v")); err != nil {
				t.Errorf("insert %d: %v", i, err)
			}
			for _, s := range db.srvs {
				if s.drain == nil {
					continue
				}
				if firstDrain == nil {
					firstDrain = s.drain
				}
			}
		}
		p.Sleep(2 * time.Second)
		db.Stop()
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if firstDrain == nil {
		t.Fatal("no drain worker was ever spawned")
	}
	spawned := 0
	for _, s := range db.srvs {
		if s.drain != nil {
			spawned++
		}
		if s.workers != 0 {
			t.Errorf("node %d: %d workers alive after drain, want 0", s.Node.ID, s.workers)
		}
	}
	if spawned == 0 {
		t.Error("expected at least one server to have built its drain closure")
	}
	if db.AsyncJobsRun != writes*2 {
		t.Errorf("AsyncJobsRun = %d, want %d (RF-1 per write)", db.AsyncJobsRun, writes*2)
	}
}

// TestHandoffWriteAndRecovery: with every placement member down, the
// write lands on a handoff stand-in; once the replica set recovers, the
// spilled jobs and the anti-entropy pass push the data home.
func TestHandoffWriteAndRecovery(t *testing.T) {
	k := sim.NewKernel(5)
	db, c, _ := testDB(k, 4, 2, nil)
	target := key(0)
	placement := db.PlacementFor(target)
	part := db.PartitionOf(target)
	k.Spawn("driver", func(p *sim.Proc) {
		for _, s := range placement {
			s.Node.Fail()
		}
		if err := c.Insert(p, target, rec("handoff")); err != nil {
			t.Errorf("handoff insert: %v", err)
		}
		// Past the async retry budget: the jobs must spill to the updater.
		p.Sleep(2 * time.Second)
		for _, s := range placement {
			s.Node.Recover()
		}
		// Across at least one replicator pass after recovery.
		p.Sleep(3 * time.Second)
		db.Stop()
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if db.HandoffWrites != 1 {
		t.Errorf("HandoffWrites = %d, want 1", db.HandoffWrites)
	}
	for _, s := range placement {
		if s.localVersion(part, target) == 0 {
			t.Errorf("placement node %d never received the handoff write", s.Node.ID)
		}
	}
	if db.UpdaterReplays+db.AntiEntropyPushes == 0 {
		t.Error("neither updater nor anti-entropy carried the handoff home")
	}
}

// TestAntiEntropyDigestPush: a version present on one replica only (no
// async job ever queued for it) reaches its peers through the digest
// exchange alone.
func TestAntiEntropyDigestPush(t *testing.T) {
	k := sim.NewKernel(7)
	db, _, _ := testDB(k, 5, 3, nil)
	target := key(3)
	part := db.PartitionOf(target)
	placement := db.PlacementFor(target)
	k.Spawn("driver", func(p *sim.Proc) {
		// Apply directly at the primary, bypassing the write path: models
		// a replica whose async jobs were lost.
		placement[0].apply(p, db, replica.Mutation{Key: target, Write: &storage.Write{Rec: rec("lone"), Ver: db.Version()}}, consistency.ApplyWrite, true)
		p.Sleep(2 * db.cfg.ReplicatorInterval)
		db.Stop()
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	for _, s := range placement[1:] {
		if s.localVersion(part, target) == 0 {
			t.Errorf("peer node %d missing the version after anti-entropy", s.Node.ID)
		}
	}
	if db.DigestsSent == 0 || db.AntiEntropyPushes < 2 {
		t.Errorf("digests=%d pushes=%d, want digest-driven pushes to both peers",
			db.DigestsSent, db.AntiEntropyPushes)
	}
}

// TestAntiEntropyKeepsTheTombstone: two replicas hold a row deleted and then
// written again — a live field and, under the tombstone, a dead one — and
// the third missed the delete and the rewrite. The anti-entropy push must
// carry the tombstone, or the dead field comes back on the third replica at
// the version its peers hold, which no later exchange corrects.
func TestAntiEntropyKeepsTheTombstone(t *testing.T) {
	k := sim.NewKernel(7)
	db, _, _ := testDB(k, 3, 3, nil)
	target := key(3)
	placement := db.PlacementFor(target)
	k.Spawn("driver", func(p *sim.Proc) {
		apply := func(s *Server, m replica.Mutation) { s.apply(p, db, m, consistency.ApplyWrite, true) }
		for i, s := range placement {
			apply(s, replica.Mutation{Key: target, Write: &storage.Write{Rec: kv.Record{"a": kv.SizedValue(10), "b": kv.SizedValue(20)}, Ver: 1}})
			if i < 2 {
				apply(s, replica.Mutation{Key: target, Write: &storage.Write{Ver: 2}, Del: true})
				apply(s, replica.Mutation{Key: target, Write: &storage.Write{Rec: kv.Record{"a": kv.SizedValue(30)}, Ver: 3}})
			}
		}
		p.Sleep(2 * db.cfg.ReplicatorInterval)
		for _, s := range placement {
			row := s.Engine.Get(p, target)
			if rec := row.Record(); row.Version() != 3 || len(rec) != 1 || rec["a"].Bytes() != 30 {
				t.Errorf("server %d after anti-entropy: %v @%d, want field a alone @3", s.Node.ID, rec, row.Version())
			}
		}
		db.Stop()
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if db.AntiEntropyPushes == 0 {
		t.Fatal("anti-entropy never pushed the row")
	}
}

// TestAsyncQueueSpillover: with the job queue capacity at zero every
// replication job spills straight to the updater, and the replicator pass
// still converges the replicas.
func TestAsyncQueueSpillover(t *testing.T) {
	k := sim.NewKernel(9)
	db, c, _ := testDB(k, 4, 3, func(cfg *Config) { cfg.AsyncQueueCap = 0 })
	k.Spawn("driver", func(p *sim.Proc) {
		for i := 0; i < 5; i++ {
			if err := c.Insert(p, key(i), rec("spill")); err != nil {
				t.Errorf("insert %d: %v", i, err)
			}
		}
		p.Sleep(2 * db.cfg.ReplicatorInterval)
		db.Stop()
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if db.AsyncJobsRun != 0 {
		t.Errorf("AsyncJobsRun = %d with zero queue cap, want 0", db.AsyncJobsRun)
	}
	if db.JobsSpilled == 0 || db.UpdaterReplays == 0 {
		t.Errorf("spilled=%d replays=%d, want the updater to carry replication", db.JobsSpilled, db.UpdaterReplays)
	}
	for i := 0; i < 5; i++ {
		for _, s := range db.PlacementFor(key(i)) {
			if s.localVersion(db.PartitionOf(key(i)), key(i)) == 0 {
				t.Errorf("key %d missing on node %d", i, s.Node.ID)
			}
		}
	}
}

// TestReadModesAfterConvergence: once replicas have converged, both read
// policies return the written value; quorum reads reconcile a majority.
func TestReadModesAfterConvergence(t *testing.T) {
	k := sim.NewKernel(11)
	db, c, _ := testDB(k, 5, 3, nil)
	k.Spawn("driver", func(p *sim.Proc) {
		if err := c.Insert(p, key(0), rec("settled")); err != nil {
			t.Errorf("insert: %v", err)
		}
		p.Sleep(2 * time.Second)
		for i, cl := range []*Client{c, c.WithReadMode(ReadQuorumFresh)} {
			// Several reads so ReadOne's rotation visits every replica.
			for n := 0; n < 3; n++ {
				got, err := cl.Read(p, key(0), nil)
				if err != nil || string(got["f0"].Data) != "settled" {
					t.Errorf("mode %d read %d: got %v err=%v", i, n, got, err)
				}
			}
		}
		db.Stop()
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
}

// TestUnavailableWhenAllDown: with every server failed, reads and writes
// return ErrUnavailable rather than hanging.
func TestUnavailableWhenAllDown(t *testing.T) {
	k := sim.NewKernel(13)
	db, c, _ := testDB(k, 3, 3, func(cfg *Config) { cfg.ReplicatorInterval = 0 })
	k.Spawn("driver", func(p *sim.Proc) {
		for _, s := range db.Servers() {
			s.Node.Fail()
		}
		if _, err := c.Read(p, key(0), nil); err != kv.ErrUnavailable {
			t.Errorf("read with all down: err=%v, want ErrUnavailable", err)
		}
		if err := c.Insert(p, key(0), rec("x")); err != kv.ErrUnavailable {
			t.Errorf("write with all down: err=%v, want ErrUnavailable", err)
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if db.Unavails != 2 {
		t.Errorf("Unavails = %d, want 2", db.Unavails)
	}
}

// TestDisabledHooksZeroAlloc pins the cost of the objstore hook call-site
// shapes with tracer and oracle detached (the performance-experiment
// configuration): the nil gates must not allocate or evaluate their
// arguments.
func TestDisabledHooksZeroAlloc(t *testing.T) {
	var tr *trace.Tracer
	var o *consistency.Oracle
	k := sim.NewKernel(15)
	k.Spawn("driver", func(p *sim.Proc) {
		target := kv.Key("user42")
		allocs := testing.AllocsPerRun(1000, func() {
			// replica.Host.Apply's shape: timed storage phase plus gated report.
			var t0 sim.Time
			if tr != nil {
				t0 = p.Now()
			}
			if tr != nil {
				tr.Phase(p, trace.PhaseStorage, 1, t0)
			}
			report := true
			if o != nil {
				if report {
					o.ReplicaApply(target, 1, 1, consistency.ApplyWrite, p.Now())
				}
			}
			// syncPartition's shape: composite span with muted legs.
			var prev any
			if tr != nil {
				t0 = p.Now()
				prev = tr.Mute(p)
			}
			if tr != nil {
				tr.Unmute(p, prev)
				tr.Interval(p, trace.PhaseAntiEntropy, 1, t0, p.Now())
			}
		})
		if allocs != 0 {
			t.Errorf("disabled hook path allocated %.1f allocs/op, want 0", allocs)
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
}

// TestScanLeavesStoredRowsUntouched: the client scan deduplicates rows
// that several servers return, and the engines hand their SSTable rows
// out uncopied. With servers that disagree (a newer partial write on one
// of them), the scan must return the newest cells without writing into
// any server's stored row.
func TestScanLeavesStoredRowsUntouched(t *testing.T) {
	k := sim.NewKernel(23)
	db, c, _ := testDB(k, 4, 3, nil)
	const keys = 12
	k.Spawn("driver", func(p *sim.Proc) {
		defer db.Stop()
		for i := 0; i < keys; i++ {
			if err := c.Insert(p, key(i), kv.Record{"f0": kv.SizedValue(i + 1), "f1": kv.SizedValue(40)}); err != nil {
				t.Fatal(err)
			}
		}
		p.Sleep(2 * time.Second) // async replication delivers
		db.FlushAll()
		p.Sleep(time.Second)
		type stored struct {
			row   *storage.Row
			rec   kv.Record
			bytes int
		}
		var snaps []stored
		for i := 0; i < keys; i++ {
			placement := db.PlacementFor(key(i))
			for _, s := range placement {
				row := s.Engine.Get(p, key(i))
				if row == nil || s.Engine.Get(p, key(i)) != row {
					t.Fatalf("server %d key %d: flushed row not shared between reads", s.Node.ID, i)
				}
				snaps = append(snaps, stored{row, row.Record(), row.Bytes()})
			}
			// Only the last placement member sees the newer write, so the
			// dedup meets the stale copies first for most keys.
			last := placement[len(placement)-1]
			last.Engine.Apply(p, key(i), kv.Record{"f0": kv.SizedValue(100 + i)}, db.Version())
			if i%2 == 1 {
				last.Engine.ForceFlush()
			}
		}
		p.Sleep(time.Second)
		rows, err := c.Scan(p, key(0), keys, []string{"f0", "f1"})
		if err != nil || len(rows) != keys {
			t.Fatalf("scan: %d rows, err %v", len(rows), err)
		}
		for i, r := range rows {
			if rec := r.Record(); r.Key != key(i) || rec["f0"].Bytes() != 100+i || rec["f1"].Bytes() != 40 {
				t.Errorf("row %d = %s %v, want f0=%d f1=40", i, r.Key, rec, 100+i)
			}
		}
		for _, s := range snaps {
			if !reflect.DeepEqual(s.row.Record(), s.rec) || s.row.Bytes() != s.bytes {
				t.Errorf("stored row changed to %+v, want %v", s.row, s.rec)
			}
		}
		defer func() {
			if recover() == nil {
				t.Error("writing into a stored row did not panic")
			}
		}()
		snaps[0].row.Delete(db.Version())
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
}

// TestSpillDuringDrainSurvives: a job spilled onto a server while the
// updater sweep is blocked delivering that server's earlier jobs is kept
// for the next pass, not overwritten by the sweep's filtered list — every
// spilled job is replayed exactly once.
func TestSpillDuringDrainSurvives(t *testing.T) {
	k := sim.NewKernel(9)
	db, c, _ := testDB(k, 4, 3, func(cfg *Config) { cfg.AsyncQueueCap = 0 })
	k.Spawn("driver", func(p *sim.Proc) {
		// Two seconds of writes: several replicator passes sweep while
		// more jobs spill.
		for i := 0; i < 400; i++ {
			if err := c.Insert(p, key(i), rec("spill")); err != nil {
				t.Errorf("insert %d: %v", i, err)
			}
			p.Sleep(5 * time.Millisecond)
		}
		p.Sleep(3 * db.cfg.ReplicatorInterval)
		db.Stop()
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if db.JobsSpilled != 800 || db.UpdaterReplays != db.JobsSpilled || db.PendingJobs() != 0 {
		t.Errorf("spilled=%d replays=%d pending=%d, want 800 spilled and every one replayed",
			db.JobsSpilled, db.UpdaterReplays, db.PendingJobs())
	}
}
