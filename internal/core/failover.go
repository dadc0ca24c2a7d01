package core

import (
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

// Findings is empty: the shapes are asserted by the package's tests.
func (FailoverResults) Findings() []Finding { return nil }

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
