package cassandra

import (
	"fmt"
	"reflect"
	"testing"
	"time"

	"cloudbench/internal/kv"
	"cloudbench/internal/replica"
	"cloudbench/internal/sim"
	"cloudbench/internal/storage"
)

func TestCoordinatorRoundRobinSkipsDownNodes(t *testing.T) {
	k := sim.NewKernel(3)
	db, cl := testDB(k, 4, 3, nil)
	db.reps[0].Node.Fail()
	db.reps[2].Node.Fail()
	seen := map[*Replica]bool{}
	for i := 0; i < 8; i++ {
		c, err := cl.coordinator()
		if err != nil {
			t.Fatal(err)
		}
		if c.Node.Down() {
			t.Fatal("picked a down coordinator")
		}
		seen[c] = true
	}
	if len(seen) != 2 {
		t.Fatalf("coordinators used = %d, want the 2 live nodes", len(seen))
	}
}

func TestCoordinatorAllDownUnavailable(t *testing.T) {
	k := sim.NewKernel(3)
	db, cl := testDB(k, 3, 2, nil)
	for _, rep := range db.reps {
		rep.Node.Fail()
	}
	if _, err := cl.coordinator(); err != kv.ErrUnavailable {
		t.Fatalf("err = %v", err)
	}
}

func TestScanPerHostFetchCapped(t *testing.T) {
	k := sim.NewKernel(5)
	db, cl := testDB(k, 10, 3, nil)
	k.Spawn("client", func(p *sim.Proc) {
		for i := 0; i < 200; i++ {
			cl.Insert(p, key(i), kv.Record{"f": kv.SizedValue(50)})
		}
		p.Sleep(100 * time.Millisecond)
		getsBefore := totalGets(db)
		rows, err := cl.Scan(p, key(0), 20, nil)
		if err != nil || len(rows) == 0 {
			t.Fatalf("scan: %v rows=%d", err, len(rows))
		}
		// Each of 10 hosts fetches ≤ limit·RF/alive + 4 = 10 rows, so the
		// total engine rows touched is far below 10 hosts × 20 rows.
		gets := totalGets(db) - getsBefore
		_ = gets // engine.Scans counts scans, not rows; sanity only
		var scans int64
		for _, rep := range db.Replicas() {
			scans += rep.Engine.Scans
		}
		if scans != 10 {
			t.Fatalf("engine scans = %d, want one per live host", scans)
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
}

func totalGets(db *DB) int64 {
	var n int64
	for _, rep := range db.Replicas() {
		n += rep.Engine.Gets
	}
	return n
}

func TestWriteTimeoutWhenReplicasStall(t *testing.T) {
	k := sim.NewKernel(7)
	db, base := testDB(k, 4, 3, func(c *Config) {
		c.Timeout = 50 * time.Millisecond
	})
	cl := base.WithConsistency(kv.All, kv.All)
	k.Spawn("client", func(p *sim.Proc) {
		target := key(9)
		// Steer the round-robin coordinator to the one non-replica node
		// so the coordinator path itself is not stalled.
		replicas := db.ReplicasFor(target)
		for i, rep := range db.reps {
			isReplica := false
			for _, r := range replicas {
				if r == rep {
					isReplica = true
				}
			}
			if !isReplica {
				cl.next = i
				break
			}
		}
		// Stall every replica's CPU with a long GC-style pause so no
		// apply can complete before the coordinator timeout.
		for _, rep := range replicas {
			rep.Node.PauseUntil(p.Now().Add(time.Second))
		}
		err := cl.Update(p, target, kv.Record{"v": kv.SizedValue(1)})
		if err != kv.ErrTimeout {
			t.Errorf("err = %v, want timeout", err)
		}
		if db.CoordinatorTimeouts == 0 {
			t.Error("timeout not counted")
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestVNodesSpreadKeyOwnership(t *testing.T) {
	// With vnodes, consecutive regions of the hash space interleave
	// owners; a node's keys should not be one contiguous range.
	k := sim.NewKernel(11)
	db, _ := testDB(k, 4, 1, nil)
	owners := make([]*Replica, 0, 256)
	for i := 0; i < 256; i++ {
		owners = append(owners, db.ReplicasFor(key(i))[0])
	}
	changes := 0
	for i := 1; i < len(owners); i++ {
		if owners[i] != owners[i-1] {
			changes++
		}
	}
	if changes < 64 {
		t.Fatalf("owner changes = %d of 255; keys too clustered", changes)
	}
}

func TestReplicationFactorClamped(t *testing.T) {
	k := sim.NewKernel(13)
	db, _ := testDB(k, 3, 9, nil)
	reps := db.ReplicasFor(key(1))
	if len(reps) != 3 {
		t.Fatalf("replicas = %d, want clamped to cluster size", len(reps))
	}
}

func TestPendingHintsDrainToZero(t *testing.T) {
	k := sim.NewKernel(17)
	db, cl := testDB(k, 4, 3, nil)
	k.Spawn("client", func(p *sim.Proc) {
		target := key(2)
		down := db.ReplicasFor(target)[1]
		down.Node.Fail()
		for i := 0; i < 5; i++ {
			if err := cl.Update(p, target, kv.Record{"v": kv.SizedValue(i + 1)}); err != nil {
				t.Fatal(err)
			}
		}
		if db.PendingHints() == 0 {
			t.Fatal("no hints pending")
		}
		down.Node.Recover()
		p.Sleep(time.Minute)
		if db.PendingHints() != 0 {
			t.Fatalf("hints remaining = %d", db.PendingHints())
		}
		// The recovered node holds the newest version.
		row := down.Engine.Get(p, target)
		if row == nil || !row.Live() {
			t.Fatal("hinted data missing after replay")
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestHintsExpireForPermanentlyDeadNode(t *testing.T) {
	k := sim.NewKernel(19)
	db, cl := testDB(k, 4, 3, func(c *Config) {
		c.HintWindow = 30 * time.Second
	})
	k.Spawn("client", func(p *sim.Proc) {
		target := key(3)
		db.ReplicasFor(target)[1].Node.Fail() // never recovers
		if err := cl.Update(p, target, kv.Record{"v": kv.SizedValue(1)}); err != nil {
			t.Fatal(err)
		}
		p.Sleep(2 * time.Minute)
		if db.PendingHints() != 0 || db.HintsExpired == 0 {
			t.Fatalf("pending=%d expired=%d", db.PendingHints(), db.HintsExpired)
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err) // deadlock would mean the replay loop never exits
	}
}

func TestManyKeysSurviveFlushAndReadBack(t *testing.T) {
	k := sim.NewKernel(23)
	db, base := testDB(k, 5, 3, nil)
	cl := base.WithConsistency(kv.Quorum, kv.Quorum)
	k.Spawn("client", func(p *sim.Proc) {
		const n = 400
		for i := 0; i < n; i++ {
			if err := cl.Insert(p, key(i), kv.Record{"v": kv.SizedValue(i%251 + 1)}); err != nil {
				t.Fatal(err)
			}
		}
		db.FlushAll()
		p.Sleep(5 * time.Second)
		for i := 0; i < n; i += 17 {
			rec, err := cl.Read(p, key(i), nil)
			if err != nil {
				t.Fatalf("read %d: %v", i, err)
			}
			if rec["v"].Bytes() != i%251+1 {
				t.Fatalf("key %d value = %d", i, rec["v"].Bytes())
			}
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestDeterministicAcrossRunsFullStack(t *testing.T) {
	run := func() string {
		k := sim.NewKernel(29)
		db, cl := testDB(k, 5, 3, nil)
		var log string
		k.Spawn("client", func(p *sim.Proc) {
			for i := 0; i < 50; i++ {
				cl.Insert(p, key(i), kv.Record{"v": kv.SizedValue(i + 1)})
			}
			for i := 0; i < 50; i += 7 {
				rec, err := cl.Read(p, key(i), nil)
				log += fmt.Sprintf("%d:%v:%d@%v;", i, err == nil, rec["v"].Bytes(), p.Now())
			}
			_ = db
		})
		if err := k.Run(); err != nil {
			t.Fatal(err)
		}
		return log
	}
	if a, b := run(), run(); a != b {
		t.Fatalf("runs diverge:\n%s\n%s", a, b)
	}
}

// TestSharedRowsSurviveRepairAndScan drives the two coordinator paths that
// reconcile rows from several replicas — read repair and the range-scan
// dedup — over replicas that disagree, with every replica's copy sitting
// in an SSTable. Engine reads hand those stored rows out uncopied, so the
// test pins that nothing above storage writes into them: no frozen-row
// panic, the stored rows are unchanged afterwards, the client still sees
// the newest cells, and a direct mutation of a stored row does panic.
func TestSharedRowsSurviveRepairAndScan(t *testing.T) {
	k := sim.NewKernel(61)
	db, base := testDB(k, 4, 3, func(c *Config) { c.ReadRepairChance = 1.0 })
	all := base.WithConsistency(kv.All, kv.All)
	const keys = 20
	type stored struct {
		rep   *Replica
		key   kv.Key
		row   *storage.Row
		rec   kv.Record
		ver   kv.Version
		bytes int
	}
	k.Spawn("client", func(p *sim.Proc) {
		for i := 0; i < keys; i++ {
			rec := kv.Record{"v": kv.SizedValue(i + 1), "w": kv.SizedValue(50)}
			if err := all.Insert(p, key(i), rec); err != nil {
				t.Fatal(err)
			}
		}
		db.FlushAll()
		p.Sleep(time.Second)
		var snaps []stored
		for i := 0; i < keys; i++ {
			for _, rep := range db.ReplicasFor(key(i)) {
				row := rep.Engine.Get(p, key(i))
				if row == nil || rep.Engine.Get(p, key(i)) != row {
					t.Fatalf("replica %s key %d: flushed row not shared between reads", rep.Node.Name, i)
				}
				snaps = append(snaps, stored{rep, key(i), row, row.Record(), row.Version(), row.Bytes()})
			}
		}
		// Diverge: a newer partial write reaches only the main replica —
		// left in its memtable for even keys, flushed for odd ones.
		for i := 0; i < keys; i++ {
			main := db.ReplicasFor(key(i))[0]
			main.Engine.Apply(p, key(i), kv.Record{"v": kv.SizedValue(100 + i)}, db.Version())
			if i%2 == 1 {
				main.Engine.ForceFlush()
			}
		}
		p.Sleep(time.Second)

		check := func(what string, i int, rec kv.Record) {
			if rec["v"].Bytes() != 100+i || rec["w"].Bytes() != 50 {
				t.Errorf("%s key %d = %v, want v=%d w=50", what, i, rec, 100+i)
			}
		}
		rows, err := base.Scan(p, key(0), keys, nil)
		if err != nil || len(rows) != keys {
			t.Fatalf("scan: %d rows, err %v", len(rows), err)
		}
		for i, r := range rows {
			check("scan", i, r.Record())
		}
		for i := 0; i < keys; i++ {
			cl := base // ONE: background repair across the replica set
			if i%3 == 0 {
				cl = all // ALL: digest mismatch, blocking repair
			}
			rec, err := cl.Read(p, key(i), nil)
			if err != nil {
				t.Fatalf("read %d: %v", i, err)
			}
			check("read", i, rec)
		}
		p.Sleep(time.Second)
		if db.BlockingRepairs == 0 || db.AsyncRepairs == 0 || db.RepairWrites == 0 {
			t.Errorf("repairs did not run: blocking=%d async=%d writes=%d", db.BlockingRepairs, db.AsyncRepairs, db.RepairWrites)
		}
		rows, _ = base.Scan(p, key(0), keys, nil)
		for i, r := range rows {
			check("scan after repair", i, r.Record())
		}
		for _, s := range snaps {
			if !reflect.DeepEqual(s.row.Record(), s.rec) || s.row.Version() != s.ver || s.row.Bytes() != s.bytes {
				t.Errorf("replica %s key %s: stored row changed to %+v", s.rep.Node.Name, s.key, s.row)
			}
		}
		func() {
			defer func() {
				if recover() == nil {
					t.Error("writing into a stored row did not panic")
				}
			}()
			snaps[0].row.Apply(kv.Record{"v": kv.SizedValue(1)}, db.Version())
		}()
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
}

// TestHintStoredDuringReplayPassSurvives: the replayer blocks on the
// network while it replays a hint, and a write coordinated on the same node
// in that window stores a new hint behind the ones being replayed. The pass
// must carry it over, not overwrite the list with what it filtered.
func TestHintStoredDuringReplayPassSurvives(t *testing.T) {
	k := sim.NewKernel(23)
	db, _ := testDB(k, 4, 3, nil)
	coord, a, b := db.reps[0], db.reps[1], db.reps[2]
	hintFor := func(target *Replica, i int) {
		rec := kv.Record{"v": kv.SizedValue(8)}
		db.noteHint(coord, target, mutation{replica.Mutation{Key: key(i), Write: &storage.Write{Rec: rec, Ver: db.Version()}}, db.MutationSize(key(i), rec)})
	}
	k.Spawn("client", func(p *sim.Proc) {
		a.Node.Fail()
		hintFor(a, 1) // starts the replayer: its first pass runs one interval from now
		a.Node.Recover()
		p.Sleep(db.cfg.HintReplayInterval + 20*time.Microsecond)
		if db.HintsReplayed != 0 || len(coord.hints) != 1 {
			t.Fatalf("replayed=%d pending=%d: the pass is not in flight, the test's timing is off", db.HintsReplayed, len(coord.hints))
		}
		b.Node.Fail()
		hintFor(b, 2)
		p.Sleep(time.Second)
		if db.HintsReplayed != 1 || db.PendingHints() != 1 {
			t.Fatalf("after the pass: replayed=%d pending=%d, want 1 and 1 (the hint stored during the pass was dropped)", db.HintsReplayed, db.PendingHints())
		}
		b.Node.Recover()
		p.Sleep(2 * db.cfg.HintReplayInterval)
		if db.HintsReplayed != 2 || db.PendingHints() != 0 {
			t.Fatalf("replayed=%d pending=%d, want 2 and 0", db.HintsReplayed, db.PendingHints())
		}
		if row := b.Engine.Get(p, key(2)); row == nil || !row.Live() {
			t.Fatal("hinted write never reached the recovered replica")
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
}
