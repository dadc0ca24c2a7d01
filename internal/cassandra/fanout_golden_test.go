package cassandra

import (
	"crypto/sha256"
	"flag"
	"fmt"
	"os"
	"slices"
	"strings"
	"testing"
	"time"

	"cloudbench/internal/cluster"
	"cloudbench/internal/kv"
	"cloudbench/internal/sim"
	"cloudbench/internal/trace"
)

var update = flag.Bool("update", false, "rewrite "+fanoutGolden+" from this checkout's coordinator paths")

const fanoutGolden = "testdata/write_fanout.sha256"

var everyLevel = []kv.ConsistencyLevel{kv.One, kv.Two, kv.Three, kv.Quorum, kv.All, kv.LocalQuorum, kv.EachQuorum}

// fanoutScript drives one deployment through scripted writes, reads and
// deletes at every consistency level while replicas fail, WAN links are
// cut and hints replay, and digests what the coordinator paths did step by
// step: the retained span stream (each span's process id pins which
// process was spawned when), the DB counters and
// every op's error.
type fanoutScript struct {
	p       *sim.Proc
	db      *DB
	c       *cluster.Cluster
	tr      *trace.Tracer
	clients []*Client // one per level, kept across steps so coordinators rotate
	oneRack bool
	seen    int // spans already digested
	digests []string
}

// step runs body and records the digest of everything it caused.
func (s *fanoutScript) step(name string, body func(log *strings.Builder)) {
	var log strings.Builder
	body(&log)
	spans := s.tr.Spans()
	for _, sp := range spans[s.seen:] {
		fmt.Fprintf(&log, "%x %x %v %v %t %d %d %d %d\n",
			sp.ID, sp.Parent, sp.Class, sp.Phase, sp.Root, sp.Node, sp.Proc, sp.Start, sp.End)
	}
	s.seen = len(spans)
	db := s.db
	fmt.Fprintf(&log, "fwd=%d hints=%d/%d/%d unavail=%d timeouts=%d repairs=%d/%d/%d now=%d\n",
		db.InterDCForwards, db.HintsStored, db.HintsReplayed, db.HintsExpired, db.Unavails,
		db.CoordinatorTimeouts, db.BlockingRepairs, db.AsyncRepairs, db.RepairWrites, s.p.Now())
	s.digests = append(s.digests, fmt.Sprintf("%s %x", name, sha256.Sum256([]byte(log.String()))))
}

// op runs one client call as a traced operation and logs its error.
func (s *fanoutScript) op(log *strings.Builder, class trace.OpClass, what string, lv kv.ConsistencyLevel, fn func() error) {
	s.tr.StartOp(s.p, class)
	err := fn()
	s.tr.EndOp(s.p)
	fmt.Fprintf(log, "%s %v: %v\n", what, lv, err)
}

// ops runs update, read, delete, read, insert on k at every level. before,
// when set, runs ahead of each write to schedule a mid-flight fault. skip
// names the levels to leave out.
func (s *fanoutScript) ops(log *strings.Builder, k kv.Key, before func(), skip ...kv.ConsistencyLevel) {
	p := s.p
	for i, lv := range everyLevel {
		if slices.Contains(skip, lv) {
			continue
		}
		cl := s.clients[i]
		write := func(class trace.OpClass, what string, fn func() error) {
			if before != nil {
				before()
			}
			s.op(log, class, what, lv, fn)
			if before != nil {
				p.Sleep(time.Second) // past the scheduled recovery
			}
		}
		read := func() {
			s.op(log, trace.ClassRead, "read", lv, func() error { _, err := cl.Read(p, k, nil); return err })
		}
		write(trace.ClassUpdate, "update", func() error { return cl.Update(p, k, kv.Record{"v": kv.SizedValue(10 + i)}) })
		read()
		write(trace.ClassUpdate, "delete", func() error { return cl.Delete(p, k) })
		read()
		write(trace.ClassInsert, "insert", func() error { return cl.Insert(p, k, kv.Record{"v": kv.SizedValue(20 + i)}) })
	}
}

// in splits k's replicas by zone: the client's DC and the first other DC
// holding any.
func (s *fanoutScript) in(k kv.Key) (local, remote []*Replica) {
	home := s.clients[0].node.Zone
	away := -1
	for _, r := range s.db.ReplicasFor(k) {
		switch z := r.Node.Zone; {
		case z == home:
			local = append(local, r)
		case away < 0 || z == away:
			away = z
			remote = append(remote, r)
		}
	}
	return local, remote
}

// blip schedules node to fail after d and recover 400 ms later.
func (s *fanoutScript) blip(n *cluster.Node, d time.Duration) func() {
	return func() {
		s.db.K.Go("blip", func(q *sim.Proc) {
			q.Sleep(d)
			n.Fail()
			q.Sleep(400 * time.Millisecond)
			n.Recover()
		})
	}
}

func (s *fanoutScript) run() {
	// On one rack LOCAL_QUORUM with two of three replicas down is the one
	// behaviour the unified ack plan changes on purpose
	// (TestSingleRackLocalQuorumIsQuorum); everything else is pinned.
	var lqTwoDown []kv.ConsistencyLevel
	if s.oneRack {
		lqTwoDown = []kv.ConsistencyLevel{kv.LocalQuorum}
	}
	s.step("healthy", func(log *strings.Builder) { s.ops(log, key(1), nil) })

	local, remote := s.in(key(2))
	if len(local) > 0 {
		s.step("local-replica-down", func(log *strings.Builder) {
			local[0].Node.Fail()
			s.ops(log, key(2), nil)
			local[0].Node.Recover()
		})
		s.step("local-replica-dies-mid-flight", func(log *strings.Builder) {
			s.ops(log, key(2), s.blip(local[len(local)-1].Node, 50*time.Microsecond))
		})
	}
	if len(local) > 1 {
		s.step("two-local-replicas-down", func(log *strings.Builder) {
			local[0].Node.Fail()
			local[1].Node.Fail()
			s.ops(log, key(2), nil, lqTwoDown...)
			local[0].Node.Recover()
			local[1].Node.Recover()
		})
	}
	if _, remote = s.in(key(3)); len(remote) > 0 {
		s.step("forwarder-down", func(log *strings.Builder) {
			remote[0].Node.Fail()
			s.ops(log, key(3), nil)
			remote[0].Node.Recover()
		})
		// The forward leg is ≥ 32 ms one way: 10 ms in, the forwarder dies
		// under the message and every live replica of its DC fails with it.
		s.step("forwarder-dies-mid-flight", func(log *strings.Builder) {
			s.ops(log, key(3), s.blip(remote[0].Node, 10*time.Millisecond))
		})
	}
	if len(remote) > 1 {
		s.step("relay-target-dies-mid-flight", func(log *strings.Builder) {
			s.ops(log, key(3), s.blip(remote[1].Node, 10*time.Millisecond))
		})
	}
	s.step("partitioned", func(log *strings.Builder) {
		s.c.PartitionZones(0, 1)
		s.ops(log, key(4), nil)
		s.c.HealZones(0, 1)
	})
	s.step("partitioned-mid-flight", func(log *strings.Builder) {
		// 60 ms in, the forward has landed and the acks are on the WAN.
		s.ops(log, key(4), func() {
			s.db.K.Go("cut", func(q *sim.Proc) {
				q.Sleep(60 * time.Millisecond)
				s.c.PartitionZones(0, 1)
				q.Sleep(400 * time.Millisecond)
				s.c.HealZones(0, 1)
			})
		})
	})
	s.step("stalled-replica", func(log *strings.Builder) {
		s.db.cfg.Timeout = 200 * time.Millisecond
		s.db.ReplicasFor(key(5))[0].Node.PauseUntil(s.p.Now().Add(30 * time.Second))
		s.ops(log, key(5), nil)
		s.db.cfg.Timeout = DefaultConfig().Timeout
	})
	s.step("hints-replayed", func(log *strings.Builder) {
		s.p.Sleep(3 * s.db.cfg.HintReplayInterval)
		fmt.Fprintf(log, "pending=%d\n", s.db.PendingHints())
		for i := 1; i <= 5; i++ {
			s.ops(log, key(i), nil)
		}
	})
}

// TestWriteFanoutGolden pins the order of everything the coordinator write
// and read paths do — which processes they spawn when, which legs they
// trace under which phase, what they hint, forward, time out and refuse —
// to digests recorded before the single-rack and multi-DC write paths were
// folded into one. Regenerate with -update only in a change that declares
// the coordinator's event order moved.
func TestWriteFanoutGolden(t *testing.T) {
	scenarios := []struct {
		name  string
		build func(k *sim.Kernel) (*DB, *Client, *cluster.Cluster)
	}{
		{"3dc", func(k *sim.Kernel) (*DB, *Client, *cluster.Cluster) {
			return multiDCDB(k, 3, []int{2, 2, 2}, 80*time.Millisecond)
		}},
		// The coordinator's DC holds no replicas: LOCAL_QUORUM degrades to
		// a plain majority.
		{"no-local-replicas", func(k *sim.Kernel) (*DB, *Client, *cluster.Cluster) {
			return multiDCDB(k, 3, []int{0, 2, 1}, 80*time.Millisecond)
		}},
		{"rack", func(k *sim.Kernel) (*DB, *Client, *cluster.Cluster) {
			db, cl := testDB(k, 5, 3, nil)
			return db, cl, db.Cluster
		}},
	}
	var got []string
	for _, sc := range scenarios {
		k := sim.NewKernel(42)
		db, base, c := sc.build(k)
		tr := trace.New()
		tr.KeepSpans(1 << 17)
		tr.BeginMeasure(0)
		db.SetTracer(tr)
		s := &fanoutScript{db: db, c: c, tr: tr, oneRack: c.Zones() == 1}
		for _, lv := range everyLevel {
			s.clients = append(s.clients, base.WithConsistency(lv, lv))
		}
		k.Spawn("script", func(p *sim.Proc) {
			s.p = p
			s.run()
		})
		if err := k.Run(); err != nil {
			t.Fatal(err)
		}
		if tr.Dropped() > 0 {
			t.Fatalf("%s: %d spans dropped; raise KeepSpans", sc.name, tr.Dropped())
		}
		for _, d := range s.digests {
			got = append(got, sc.name+"/"+d)
		}
	}
	if *update {
		if err := os.WriteFile(fanoutGolden, []byte(strings.Join(got, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	raw, err := os.ReadFile(fanoutGolden)
	if err != nil {
		t.Fatalf("%v (record it with -update on the parent commit)", err)
	}
	want := strings.Split(strings.TrimSpace(string(raw)), "\n")
	if len(got) != len(want) {
		t.Fatalf("%d steps, golden has %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Errorf("step %s — the coordinator's event order moved (golden %s)", got[i], want[i])
		}
	}
}
