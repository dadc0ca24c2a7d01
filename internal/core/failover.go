package core

import (
	"fmt"
	"time"

	"cloudbench/internal/cassandra"
	"cloudbench/internal/cluster"
	"cloudbench/internal/hbase"
	"cloudbench/internal/kv"
	"cloudbench/internal/sim"
	"cloudbench/internal/stats"
	"cloudbench/internal/ycsb"
)

// The availability extension experiment (related work §5: Pokluda & Sun
// benchmark failover characteristics by watching throughput and latency
// while a node fails and recovers) fails one of six servers for four
// seconds.
const (
	failoverServers     = 6
	failoverReplication = 3
	failoverRecords     = 1_500
	failoverThreads     = 32
	failoverBucket      = 500 * time.Millisecond // timeline resolution
	failoverFailAt      = 2 * time.Second
	failoverRecoverAt   = 6 * time.Second
	failoverEnd         = 10 * time.Second
)

// FailoverTimeline is the per-bucket availability trace of one system.
type FailoverTimeline struct {
	System  string
	Bucket  time.Duration
	OK      []int64 // successful ops per bucket
	Errors  []int64
	Replays int64 // hints replayed after recovery (Cassandra only)
}

// FailoverResults holds all systems' traces.
type FailoverResults []FailoverTimeline

// Tables renders the two timelines, one series per system: successful ops
// per bucket, then errors per bucket.
func (r FailoverResults) Tables() []*stats.Table {
	ok := stats.NewFigure("Extension — successful ops per bucket through failure and recovery",
		"time (s)", "ok-ops/bucket")
	errs := stats.NewFigure("Extension — errors per bucket through failure and recovery",
		"time (s)", "errors/bucket")
	for _, tl := range r {
		so, se := ok.AddSeries(tl.System), errs.AddSeries(tl.System)
		for i := range tl.OK {
			x := float64(i) * tl.Bucket.Seconds()
			so.Add(x, float64(tl.OK[i]))
			se.Add(x, float64(tl.Errors[i]))
		}
	}
	return figureTables([]*stats.Figure{ok, errs})
}

// Findings judges the failover claims: FF1, Cassandra at ONE and QUORUM
// rides through the outage; FF2, at ALL and on single-owner HBase it errors
// through the outage and only inside it; FF3, hinted handoff replays the
// missed writes at ONE and QUORUM once the node is back. A system with no
// timeline fails every claim about it.
func (r FailoverResults) Findings() []Finding {
	// Errors may land one bucket either side of the outage: ops in flight
	// when the node dies or returns.
	first, last := int(failoverFailAt/failoverBucket)-1, int(failoverRecoverAt/failoverBucket)+1
	type tally struct {
		found                  bool
		errs, outside, replays int64
	}
	by := map[string]tally{}
	for _, tl := range r {
		t := tally{found: true, replays: tl.Replays}
		for i, e := range tl.Errors {
			t.errs += e
			if i < first || i > last {
				t.outside += e
			}
		}
		by[tl.System] = t
	}
	one, quorum, all, hb := by["Cassandra-ONE"], by["Cassandra-QUORUM"], by["Cassandra-ALL"], by["HBase"]
	ridesThrough := func(t tally) bool { return t.found && t.errs <= failoverThreads && t.outside == 0 }
	failsThrough := func(t tally) bool { return t.found && t.errs >= 50 && t.outside == 0 }
	return []Finding{{
		ID:    "FF1",
		Claim: "Cassandra ONE and QUORUM ride through a node failure: only requests in flight at the failure error",
		Pass:  ridesThrough(one) && ridesThrough(quorum),
		Detail: fmt.Sprintf("errors ONE=%d QUORUM=%d (at most %d, one per client thread); outside the outage ONE=%d QUORUM=%d",
			one.errs, quorum.errs, failoverThreads, one.outside, quorum.outside),
	}, {
		ID:    "FF2",
		Claim: "Cassandra ALL and single-owner HBase error through the outage, and only inside it (±1 bucket)",
		Pass:  failsThrough(all) && failsThrough(hb),
		Detail: fmt.Sprintf("errors ALL=%d HBase=%d (at least 50); outside the outage ALL=%d HBase=%d",
			all.errs, hb.errs, all.outside, hb.outside),
	}, {
		ID:     "FF3",
		Claim:  "hinted handoff replays the missed writes at ONE and QUORUM after recovery",
		Pass:   one.replays > 0 && quorum.replays > 0,
		Detail: fmt.Sprintf("hints replayed ONE=%d QUORUM=%d", one.replays, quorum.replays),
	}}
}

// failoverSystem is one traced system: Cassandra at a consistency setting,
// or single-owner HBase.
type failoverSystem struct {
	ConsistencySetting
	hbase bool
}

func (s failoverSystem) String() string { return s.Name }

// RunFailover traces availability through a fail/recover cycle for
// Cassandra at ONE, QUORUM, and ALL, and for single-owner HBase. The four
// systems are independent simulations, each on its own kernel seeded from
// o.Seed, fanned out across the sweep scheduler (o.Parallelism).
func RunFailover(o Options) (FailoverResults, error) {
	systems := []failoverSystem{
		{ConsistencySetting: ConsistencySetting{Name: "Cassandra-ONE", Read: kv.One, Write: kv.One}},
		{ConsistencySetting: ConsistencySetting{Name: "Cassandra-QUORUM", Read: kv.Quorum, Write: kv.Quorum}},
		{ConsistencySetting: ConsistencySetting{Name: "Cassandra-ALL", Read: kv.All, Write: kv.All}},
		{ConsistencySetting: ConsistencySetting{Name: "HBase"}, hbase: true},
	}
	return sweep(o, "failover", systems, func(o Options, sys failoverSystem) (FailoverResults, error) {
		tl, err := runFailoverOne(o.Seed, sys)
		return FailoverResults{tl}, err
	})
}

// runFailoverOne is deliberately not a cell of cell.go's protocol: it
// measures a timeline, not a run phase — a small default-configured rack,
// no settle, and open-ended worker loops bucketed by simulated time.
func runFailoverOne(seed int64, sys failoverSystem) (FailoverTimeline, error) {
	k := sim.NewKernel(seed)
	ccfg := cluster.DefaultConfig()
	ccfg.Nodes = failoverServers + 1
	rack := cluster.New(k, ccfg)
	servers, clientNode := rack.Nodes[:failoverServers], rack.Nodes[failoverServers]
	spec := ycsb.ReadUpdate(failoverRecords)
	var factory ycsb.ClientFactory
	replays := func() int64 { return 0 }
	if sys.hbase {
		db := hbase.New(k, hbase.DefaultConfig(), servers, clientNode, spec.SplitPoints(2*failoverServers))
		factory = func() kv.Client { return db.NewClient(clientNode) }
	} else {
		cfg := cassandra.DefaultConfig()
		cfg.Replication = failoverReplication
		cfg.ReadCL, cfg.WriteCL = sys.Read, sys.Write
		db := cassandra.New(k, cfg, servers)
		factory = func() kv.Client { return db.NewClient(clientNode) }
		replays = func() int64 { return db.HintsReplayed }
	}

	buckets := int(failoverEnd/failoverBucket) + 1
	tl := FailoverTimeline{
		System: sys.Name,
		Bucket: failoverBucket,
		OK:     make([]int64, buckets),
		Errors: make([]int64, buckets),
	}
	victim := servers[len(servers)/2]

	k.Spawn("driver", func(p *sim.Proc) {
		w := ycsb.NewWorkload(spec)
		ycsb.Load(p, factory, w, 16, 0, spec.RecordCount)
		start := p.Now()
		k.After(failoverFailAt, func() { victim.Fail() })
		k.After(failoverRecoverAt, func() { victim.Recover() })

		workers := make([]*sim.Proc, 0, failoverThreads)
		for t := 0; t < failoverThreads; t++ {
			cl := factory()
			workers = append(workers, k.Spawn("worker", func(q *sim.Proc) {
				rng := q.Rand()
				for {
					elapsed := q.Now().Sub(start)
					if elapsed >= failoverEnd {
						return
					}
					b := int(elapsed / failoverBucket)
					op := w.NextOp(rng)
					var err error
					if op.Type == ycsb.OpRead {
						_, err = cl.Read(q, op.Key, nil)
					} else {
						err = cl.Update(q, op.Key, op.Record)
					}
					if err != nil && err != kv.ErrNotFound {
						tl.Errors[b]++
					} else {
						tl.OK[b]++
					}
					q.Sleep(time.Duration(1+rng.Intn(4)) * time.Millisecond)
				}
			}))
		}
		for _, wk := range workers {
			wk.Done().Await(p)
		}
		p.Sleep(30 * time.Second) // hint replay window
		tl.Replays = replays()
	})
	err := k.Run()
	return tl, err
}
