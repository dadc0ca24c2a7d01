package objstore

import (
	"crypto/sha256"
	"flag"
	"fmt"
	"os"
	"strings"
	"testing"
	"time"

	"cloudbench/internal/cluster"
	"cloudbench/internal/consistency"
	"cloudbench/internal/kv"
	"cloudbench/internal/sim"
	"cloudbench/internal/trace"
)

var update = flag.Bool("update", false, "rewrite "+fanoutGolden+" from this checkout's server and client paths")

const fanoutGolden = "testdata/fanout.sha256"

// fanoutScript drives one deployment through scripted writes, reads, scans
// and deletes while servers fail, jobs spill and the replicator catches up,
// and digests what the server and client paths did step by step: the
// retained span stream (each span's process id pins which process was
// spawned when), every DB counter, the oracle's
// report and every op's error.
type fanoutScript struct {
	p       *sim.Proc
	db      *DB
	tr      *trace.Tracer
	one, qf *Client // kept across steps so read-one rotation carries over
	seen    int     // spans already digested
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
	fmt.Fprintf(&log, "ops=%d/%d/%d handoff=%d unavail=%d jobs=%d/%d/%d/%d ae=%d/%d/%d pending=%d now=%d\n",
		db.Reads, db.Writes, db.ScansDone, db.HandoffWrites, db.Unavails,
		db.AsyncJobsRun, db.JobRetries, db.JobsSpilled, db.UpdaterReplays,
		db.AntiEntropyPasses, db.DigestsSent, db.AntiEntropyPushes, db.PendingJobs(), s.p.Now())
	fmt.Fprintf(&log, "%+v\n", db.Oracle.Report())
	s.digests = append(s.digests, fmt.Sprintf("%s %x", name, sha256.Sum256([]byte(log.String()))))
}

// op runs one client call as a traced operation and logs its outcome.
func (s *fanoutScript) op(log *strings.Builder, class trace.OpClass, what string, fn func() (any, error)) {
	s.tr.StartOp(s.p, class)
	got, err := fn()
	s.tr.EndOp(s.p)
	fmt.Fprintf(log, "%s: %v %v\n", what, got, err)
}

func (s *fanoutScript) insert(log *strings.Builder, k kv.Key, size int) {
	s.op(log, trace.ClassInsert, "insert", func() (any, error) {
		return nil, s.one.Insert(s.p, k, kv.Record{"v": kv.SizedValue(size), "w": kv.SizedValue(7)})
	})
}

func (s *fanoutScript) update(log *strings.Builder, k kv.Key, size int) {
	s.op(log, trace.ClassUpdate, "update", func() (any, error) {
		return nil, s.one.Update(s.p, k, kv.Record{"v": kv.SizedValue(size)})
	})
}

func (s *fanoutScript) delete(log *strings.Builder, k kv.Key) {
	s.op(log, trace.ClassUpdate, "delete", func() (any, error) { return nil, s.one.Delete(s.p, k) })
}

// reads reads k three times at read-one — the rotation visits every live
// replica — and twice quorum-fresh, whose rotation then covers both
// majorities' leaders.
func (s *fanoutScript) reads(log *strings.Builder, k kv.Key) {
	read := func(what string, c *Client, n int) {
		for range n {
			s.op(log, trace.ClassRead, what, func() (any, error) {
				rec, err := c.Read(s.p, k, nil)
				return rec.Bytes(), err
			})
		}
	}
	read("read-one", s.one, 3)
	read("read-quorum", s.qf, 2)
}

func (s *fanoutScript) scan(log *strings.Builder, start kv.Key, limit int, fields []string) {
	s.op(log, trace.ClassScan, "scan", func() (any, error) {
		rows, err := s.one.Scan(s.p, start, limit, fields)
		var out []string
		for _, r := range rows {
			out = append(out, fmt.Sprintf("%s=%d", r.Key, r.Bytes()))
		}
		return out, err
	})
}

// blip schedules node to fail after d and recover 400 ms later.
func (s *fanoutScript) blip(n *cluster.Node, d time.Duration) {
	s.db.K.Go("blip", func(q *sim.Proc) {
		q.Sleep(d)
		n.Fail()
		q.Sleep(400 * time.Millisecond)
		n.Recover()
	})
}

// Two waits the steps share: past a job's whole retry budget (50 + 100 +
// 200 ms of backoff at the default config), and past two replicator passes.
const (
	pastRetries = 600 * time.Millisecond
	pastPasses  = 2500 * time.Millisecond
)

func (s *fanoutScript) run() {
	p, db := s.p, s.db
	s.step("healthy", func(log *strings.Builder) {
		for i := 1; i <= 3; i++ {
			s.insert(log, key(i), 10+i)
			s.reads(log, key(i))
			s.update(log, key(i), 20+i)
		}
		s.scan(log, key(0), 10, nil)
		p.Sleep(pastPasses)
		s.reads(log, key(2))
	})
	s.step("primary-down", func(log *strings.Builder) {
		// The second placement member takes the write; its job for the
		// primary runs out of attempts and spills, the reads after recovery
		// meet diverged replicas, and the updater replays.
		primary := db.PlacementFor(key(4))[0]
		primary.Node.Fail()
		s.insert(log, key(4), 14)
		s.update(log, key(4), 24)
		s.reads(log, key(4))
		p.Sleep(pastRetries)
		primary.Node.Recover()
		s.reads(log, key(4))
		p.Sleep(pastPasses)
		s.reads(log, key(4))
	})
	s.step("handoff", func(log *strings.Builder) {
		placement := db.PlacementFor(key(5))
		for _, srv := range placement {
			srv.Node.Fail()
		}
		s.insert(log, key(5), 15)
		s.reads(log, key(5))
		s.update(log, key(5), 25)
		p.Sleep(pastRetries)
		for _, srv := range placement {
			srv.Node.Recover()
		}
		s.reads(log, key(5))
		p.Sleep(pastPasses)
		s.reads(log, key(5))
	})
	s.step("queue-cap", func(log *strings.Builder) {
		// A queue of one: the second job of every write spills on arrival.
		db.cfg.AsyncQueueCap = 1
		for i := 6; i <= 9; i++ {
			s.insert(log, key(i), 10+i)
		}
		s.update(log, key(6), 26)
		db.cfg.AsyncQueueCap = DefaultConfig().AsyncQueueCap
		for i := 6; i <= 9; i++ {
			s.reads(log, key(i))
		}
		p.Sleep(pastPasses)
		s.reads(log, key(6))
	})
	s.step("down-across-passes", func(log *strings.Builder) {
		// The target stays down past two passes: the spilled job waits in
		// the updater, and whichever of updater and digest exchange reaches
		// the recovered server first carries the version home.
		last := db.PlacementFor(key(2))[2]
		last.Node.Fail()
		s.update(log, key(2), 32)
		s.insert(log, key(10), 40)
		p.Sleep(pastPasses)
		last.Node.Recover()
		s.reads(log, key(2))
		p.Sleep(pastPasses)
		s.reads(log, key(2))
	})
	s.step("dies-mid-flight", func(log *strings.Builder) {
		// 50 µs in, the write is on the wire and the jobs are not yet out.
		placement := db.PlacementFor(key(3))
		s.blip(placement[1].Node, 50*time.Microsecond)
		s.update(log, key(3), 33)
		s.reads(log, key(3))
		p.Sleep(time.Second)
		s.blip(placement[0].Node, 50*time.Microsecond)
		s.reads(log, key(3))
		p.Sleep(pastPasses)
	})
	s.step("delete-diverged", func(log *strings.Builder) {
		last := db.PlacementFor(key(1))[2]
		last.Node.Fail()
		s.delete(log, key(1))
		p.Sleep(pastRetries)
		last.Node.Recover()
		s.reads(log, key(1))
		s.scan(log, key(0), 5, []string{"v"})
		p.Sleep(pastPasses)
		s.reads(log, key(1))
	})
	s.step("scan-server-down", func(log *strings.Builder) {
		db.srvs[1].Node.Fail()
		s.scan(log, key(0), 10, nil)
		s.scan(log, key(4), 3, []string{"w"})
		db.srvs[1].Node.Recover()
		s.scan(log, key(0), 100, nil)
	})
	s.step("stalled-server", func(log *strings.Builder) {
		db.cfg.Timeout = 200 * time.Millisecond
		db.PlacementFor(key(7))[0].Node.PauseUntil(p.Now().Add(3 * time.Second))
		s.reads(log, key(7))
		db.cfg.Timeout = DefaultConfig().Timeout
		p.Sleep(4 * time.Second)
		s.reads(log, key(7))
	})
	s.step("drained", func(log *strings.Builder) {
		p.Sleep(pastPasses)
		for i := 1; i <= 10; i++ {
			s.reads(log, key(i))
		}
		db.Stop()
	})
}

// TestObjstoreFanoutGolden pins the order of everything the object servers
// and the client do — which processes they spawn when, which legs they
// trace under which phase, what spills, replays and is pushed, what the
// oracle is told — to digests recorded before the replica host moved to
// internal/replica. Regenerate with -update only in a change that declares
// the object store's event order moved.
func TestObjstoreFanoutGolden(t *testing.T) {
	k := sim.NewKernel(42)
	db, base, _ := testDB(k, 5, 3, nil)
	tr := trace.New()
	tr.KeepSpans(1 << 17)
	tr.BeginMeasure(0)
	o := consistency.New()
	o.SetAckSemantics(consistency.AckAsync)
	o.BeginMeasure(0)
	db.SetOracle(o)
	db.SetTracer(tr)
	// The clients register with the oracle, so they are made after it is
	// attached.
	one := db.NewClient(base.node)
	s := &fanoutScript{db: db, tr: tr, one: one, qf: one.WithReadMode(ReadQuorumFresh)}
	k.Spawn("script", func(p *sim.Proc) {
		s.p = p
		s.run()
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if tr.Dropped() > 0 {
		t.Fatalf("%d spans dropped; raise KeepSpans", tr.Dropped())
	}
	// The script is only a pin if it reached every mechanism it names.
	for name, n := range map[string]int64{
		"HandoffWrites": db.HandoffWrites, "JobRetries": db.JobRetries, "JobsSpilled": db.JobsSpilled,
		"UpdaterReplays": db.UpdaterReplays, "AntiEntropyPushes": db.AntiEntropyPushes, "Unavails": db.Unavails,
		"StaleReads": o.Report().StaleReads, "HintApplies": o.Report().HintApplies,
	} {
		if n == 0 {
			t.Errorf("script never exercised %s", name)
		}
	}
	got := s.digests
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
			t.Errorf("step %s — the object store's event order moved (golden %s)", got[i], want[i])
		}
	}
}
