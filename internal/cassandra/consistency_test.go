package cassandra

import (
	"testing"
	"time"

	"cloudbench/internal/consistency"
	"cloudbench/internal/kv"
	"cloudbench/internal/replica"
	"cloudbench/internal/sim"
	"cloudbench/internal/storage"
)

// TestReconcileTieBreaksByLowestNodeID: with equal versions on two
// replicas, the reconciled winner must be the lowest node id's cell,
// whatever order the responses arrived in.
func TestReconcileTieBreaksByLowestNodeID(t *testing.T) {
	k := sim.NewKernel(1)
	db, _ := testDB(k, 4, 3, nil)
	low, high := db.reps[0], db.reps[3]

	mkRow := func(val int) *storage.Row {
		r := storage.NewRow()
		r.Apply(kv.Record{"v": kv.SizedValue(val)}, 50) // same version
		return r
	}
	respLow := replica.Response{Host: &low.Host, Row: mkRow(1), Ver: 50, OK: true}
	respHigh := replica.Response{Host: &high.Host, Row: mkRow(2), Ver: 50, OK: true}

	for _, resps := range [][]replica.Response{
		{respLow, respHigh},
		{respHigh, respLow},
	} {
		if got := replica.Reconcile(resps, nil).Record()["v"].Bytes(); got != 1 {
			t.Fatalf("order %v: tie winner value = %d, want node %d's value 1",
				[]int{resps[0].Host.Node.ID, resps[1].Host.Node.ID}, got, low.Node.ID)
		}
	}

	// Failed responses are excluded from the fold.
	merged := replica.Reconcile([]replica.Response{{Host: &low.Host, OK: false}, respHigh}, nil)
	if got := merged.Record()["v"].Bytes(); got != 2 {
		t.Fatalf("failed response included in reconcile: got %d", got)
	}
}

// TestMutationStageDelayOpensStaleWindowAtOne: with replica-stage jitter
// on, a CL=ONE read issued right after a write's ack can reach the main
// replica before the fan-out apply — and the oracle sees it — while RF=1
// and QUORUM stay structurally fresh.
func TestMutationStageDelayOpensStaleWindowAtOne(t *testing.T) {
	run := func(rf int, readCL, writeCL kv.ConsistencyLevel) consistency.Report {
		k := sim.NewKernel(31)
		db, _ := testDB(k, 6, rf, func(c *Config) {
			c.ReadRepairChance = 0
			c.MutationStageMeanDelay = time.Millisecond
		})
		oracle := consistency.New()
		db.SetOracle(oracle)
		oracle.BeginMeasure(0)
		cl := db.NewClient(db.reps[0].Node.Cluster().Nodes[6]).WithConsistency(readCL, writeCL)
		k.Spawn("client", func(p *sim.Proc) {
			for i := 0; i < 150; i++ {
				if err := cl.Insert(p, key(i), kv.Record{"v": kv.SizedValue(i + 1)}); err != nil {
					t.Errorf("insert %d: %v", i, err)
					return
				}
				if _, err := cl.Read(p, key(i), nil); err != nil && err != kv.ErrNotFound {
					t.Errorf("read %d: %v", i, err)
					return
				}
			}
		})
		if err := k.Run(); err != nil {
			t.Fatal(err)
		}
		return oracle.Report()
	}

	one := run(3, kv.One, kv.One)
	if one.StaleReads == 0 {
		t.Fatalf("no stale reads at ONE/rf3 with stage jitter: %+v", one)
	}
	if single := run(1, kv.One, kv.One); single.StaleReads != 0 {
		t.Fatalf("rf1 stale=%d: the acking replica is the read replica", single.StaleReads)
	}
	if q := run(3, kv.Quorum, kv.Quorum); q.StaleReads != 0 {
		t.Fatalf("QUORUM stale=%d: read/write sets must intersect", q.StaleReads)
	}
}

// TestRecoveredReplicaStaleUntilHintReplay: after a fail/recover cycle
// the main replica serves its keys while still missing the down-window
// writes; the oracle counts the stale reads and the monotonic regression,
// and hint replay closes the gap.
func TestRecoveredReplicaStaleUntilHintReplay(t *testing.T) {
	k := sim.NewKernel(41)
	db, _ := testDB(k, 5, 3, func(c *Config) { c.ReadRepairChance = 0 })
	oracle := consistency.New()
	db.SetOracle(oracle)
	oracle.BeginMeasure(0)
	cl := db.NewClient(db.reps[0].Node.Cluster().Nodes[5])
	k.Spawn("client", func(p *sim.Proc) {
		target := key(7)
		main := db.ReplicasFor(target)[0]

		if err := cl.Update(p, target, kv.Record{"v": kv.SizedValue(1)}); err != nil {
			t.Fatal(err)
		}
		p.Sleep(50 * time.Millisecond) // v1 everywhere

		main.Node.Fail()
		if err := cl.Update(p, target, kv.Record{"v": kv.SizedValue(2)}); err != nil {
			t.Fatal(err) // acked by the two live replicas; hint stored for main
		}
		if rec, err := cl.Read(p, target, nil); err != nil || rec["v"].Bytes() != 2 {
			t.Fatalf("down-window read = %v %v, want v2 from a live replica", rec, err)
		}

		main.Node.Recover()
		rec, err := cl.Read(p, target, nil)
		if err != nil {
			t.Fatal(err)
		}
		if rec["v"].Bytes() != 1 {
			t.Fatalf("post-recovery read = %v, want stale v1 from the recovered main", rec)
		}
		r := oracle.Report()
		if r.StaleReads != 1 || r.MonotonicViolations != 1 {
			t.Fatalf("stale=%d mono=%d, want 1/1", r.StaleReads, r.MonotonicViolations)
		}

		p.Sleep(30 * time.Second) // replay interval is 10s
		if rec, err := cl.Read(p, target, nil); err != nil || rec["v"].Bytes() != 2 {
			t.Fatalf("post-replay read = %v %v, want v2", rec, err)
		}
		r = oracle.Report()
		if r.HintApplies == 0 {
			t.Fatal("hint replay not observed by the oracle")
		}
		if r.StaleReads != 1 {
			t.Fatalf("stale=%d after replay, want still 1", r.StaleReads)
		}
		if r.FullyVisible != 2 {
			t.Fatalf("fully visible writes = %d, want both (v2 via hint)", r.FullyVisible)
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
}

// TestHintExpiryWindowBoundary: a hint older than HintWindow at replay
// time is dropped, a younger one for the same key survives and replays.
func TestHintExpiryWindowBoundary(t *testing.T) {
	k := sim.NewKernel(43)
	db, cl := testDB(k, 4, 3, func(c *Config) {
		c.HintWindow = 30 * time.Second
		c.HintReplayInterval = 20 * time.Second
	})
	k.Spawn("client", func(p *sim.Proc) {
		target := key(11)
		down := db.ReplicasFor(target)[1]
		down.Node.Fail()

		if err := cl.Update(p, target, kv.Record{"v": kv.SizedValue(1)}); err != nil {
			t.Fatal(err) // hint A stored at ~0s
		}
		p.Sleep(25 * time.Second) // pass at 20s keeps A (age < window)
		if db.HintsExpired != 0 {
			t.Fatalf("hint expired early at age 20s < window 30s")
		}
		if err := cl.Update(p, target, kv.Record{"v": kv.SizedValue(2)}); err != nil {
			t.Fatal(err) // hint B stored at ~25s
		}
		p.Sleep(10 * time.Second)
		down.Node.Recover() // up before the 40s pass
		p.Sleep(10 * time.Second)
		// The pass at 40s sees A at age 40s > window (expired) and B at age
		// 15s with a live target (replayed).
		if db.HintsExpired != 1 || db.HintsReplayed != 1 || db.PendingHints() != 0 {
			t.Fatalf("expired=%d replayed=%d pending=%d, want 1/1/0",
				db.HintsExpired, db.HintsReplayed, db.PendingHints())
		}
		row := down.Engine.Get(p, target)
		if row == nil || row.Record()["v"].Bytes() != 2 {
			t.Fatalf("recovered replica row = %+v, want the surviving hint's v2", row)
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
}
