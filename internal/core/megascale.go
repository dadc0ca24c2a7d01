package core

import (
	"fmt"
	"time"

	"cloudbench/internal/cassandra"
	"cloudbench/internal/cluster"
	"cloudbench/internal/kv"
	"cloudbench/internal/sim"
	"cloudbench/internal/stats"
	"cloudbench/internal/ycsb"
)

// Megascale is the ROADMAP's "one huge deployment": a paper-scale
// Cassandra cluster — hundreds of database machines, RF 3, on the order
// of a million YCSB client processes — partitioned across member kernels
// by cluster.PlanShards. It is the one experiment whose model is spatially
// split: the fig/spectrum/tracebreak/geo cells are process-carried — one
// client machine's threads touch every server directly — so they run on one
// sequential kernel, while each megascale segment is an independent
// cluster on its own member kernel and a controlled fraction of reads
// crosses segments through the group's conservative delivery API.
// The deployment is laid out as one geo topology (one DC per segment on a
// WAN chain), PlanShards derives the shard map and the per-pair delivery
// floors from it, and those floors are what the adaptive window engine
// widens on: far-apart segments exchange messages rarely and cheaply, so
// their windows grow far beyond the global minimum lookahead.
//
// Clients are not long-lived threads but a churn of short sessions
// (ycsb.RunSessions): each arrives, runs a handful of operations, and
// exits, with a bounded number alive per segment. A full run spawns
// ~Sessions client processes through the kernels' pooled proc workers.

// MegaScaleOptions sizes one megascale deployment.
type MegaScaleOptions struct {
	Seed   int64
	Shards int // member kernels; one DC/segment per shard

	// Nodes is the total count of database machines, split evenly across
	// segments (each segment also gets one client machine). Must be
	// divisible by Shards.
	Nodes int

	// Sessions is the total number of client processes spawned across the
	// deployment; LiveSessions bounds how many are alive at once (split
	// evenly across segments), and each runs OpsPerSession operations.
	Sessions      int64
	LiveSessions  int
	OpsPerSession int64

	RecordsPerSegment int64
	Replication       int

	// RemoteEvery sends every RemoteEvery'th read to the next segment on
	// the chain (wrapping at the end), paying that pair's WAN floor each
	// way. 0 disables.
	RemoteEvery int

	// WANRTT is the adjacent-DC round trip of the WAN chain
	// (cluster.WANChain) the segments sit on.
	WANRTT time.Duration

	// Workers caps the group's pinned worker goroutines; 0 means one per
	// available CPU.
	Workers int

	Cluster cluster.Config
}

// DefaultMegaScaleOptions returns the full deployment: 512 database
// machines (the paper-scale "500 nodes" rounded so every power-of-two
// shard count divides it evenly), RF 3, and one million client sessions.
// Expect minutes of wall clock; tests and CI smoke use MegaSmokeOptions.
func DefaultMegaScaleOptions() MegaScaleOptions {
	ccfg := cluster.DefaultConfig()
	ccfg.CPUSlots = 8
	ccfg.CPUOpCost = 200 * time.Microsecond
	ccfg.InternalOpCost = 100 * time.Microsecond
	return MegaScaleOptions{
		Seed:              1,
		Shards:            1,
		Nodes:             512,
		Sessions:          1_000_000,
		LiveSessions:      2_048,
		OpsPerSession:     2,
		RecordsPerSegment: 2_000,
		Replication:       3,
		RemoteEvery:       20,
		WANRTT:            80 * time.Millisecond,
		Cluster:           ccfg,
	}
}

// MegaSmokeOptions returns a cell small enough for unit tests and the CI
// smoke job while keeping every megascale mechanism live: multiple
// segments, session churn, and cross-segment reads.
func MegaSmokeOptions() MegaScaleOptions {
	o := DefaultMegaScaleOptions()
	o.Nodes = 16
	o.Sessions = 2_000
	o.LiveSessions = 64
	o.RecordsPerSegment = 300
	return o
}

// MegaScaleSegment is one segment's measured slice of the run.
type MegaScaleSegment struct {
	Nodes       int
	Sessions    int64
	Ops         int64
	Throughput  float64 // simulated ops/second over the measured window
	MeanLatency time.Duration
	RemoteReads int64
	Errors      int64
	NotFound    int64
}

// MegaScaleResult aggregates a megascale run.
type MegaScaleResult struct {
	Shards   int
	Segments []MegaScaleSegment

	Sessions    int64
	TotalOps    int64
	RemoteReads int64
	Errors      int64
	// Throughput sums the segments' simulated throughputs.
	Throughput float64
	// Windows is the number of conservative barriers the group executed —
	// the number adaptive widening pushes down.
	Windows int64
}

// runMegaExperiment is the megascale registry entry. The cell scales with
// -profile: smoke is the small CI cell, quick a mid-size cell that keeps
// `-experiment all` tolerable, paper the full 512-node million-session
// deployment. -shards sizes the group, clamped to at least 2 so the
// partitioned engine actually runs (a megascale deployment on one member
// kernel is just a very slow sequential simulation). Its windows run on
// the pinned pool's default, one worker per CPU up to the active shards.
func runMegaExperiment(o Options, cli CLI) (Report, error) {
	mo := DefaultMegaScaleOptions()
	switch cli.Profile {
	case "smoke":
		mo = MegaSmokeOptions()
	case "paper": // the full deployment
	default: // quick
		mo.Nodes = 64
		mo.Sessions = 20_000
		mo.LiveSessions = 256
	}
	mo.Seed = o.Seed
	mo.Shards = max(cli.Shards, 2)
	res, err := RunMegaScale(mo)
	if err != nil {
		return nil, err
	}
	t := res.Table()
	t.Note = fmt.Sprintf("megascale: %d shards, %d conservative windows", res.Shards, res.Windows)
	return printed{tables: []*stats.Table{t}}, nil
}

// Table renders the per-segment breakdown plus a totals row — the
// megascale.csv CI archives with the other experiment smokes.
func (r MegaScaleResult) Table() *stats.Table {
	t := stats.NewTable("Megascale — partitioned Cassandra deployment, session churn per segment (DESIGN §10)",
		"segment", "nodes", "sessions", "measured-ops", "simops/s", "mean-latency", "remote-reads", "not-found", "errors")
	for i, s := range r.Segments {
		t.AddRow(i, s.Nodes, s.Sessions, s.Ops, s.Throughput, s.MeanLatency, s.RemoteReads, s.NotFound, s.Errors)
	}
	nodes := 0
	for _, s := range r.Segments {
		nodes += s.Nodes
	}
	t.AddRow("total", nodes, r.Sessions, r.TotalOps, r.Throughput, "-", r.RemoteReads, "-", r.Errors)
	return t
}

// megaSegment is one segment under construction: its own LAN cluster and
// database on its own member kernel, per the shard plan.
type megaSegment struct {
	shard      *sim.Shard
	db         *cassandra.DB
	clientNode *cluster.Node
	w          *ycsb.Workload
	// server handles reads arriving from other segments; it lives on this
	// segment's shard and is only ever used by code delivered here.
	server kv.Client
	result ycsb.Result
	remote int64
}

// remoteMixClient wraps a segment-local client and diverts every n'th read
// to a destination segment over the shard group's delivery API — each hop
// paying the pair's delivery floor. All other verbs stay local.
type remoteMixClient struct {
	kv.Client
	src    *sim.Shard
	dst    *sim.Shard
	server kv.Client // destination segment's serving client
	remote *int64    // cross-segment read counter, owned by the source shard
	every  int
	n      int
}

type remoteResp struct {
	rec kv.Record
	err error
}

func (c *remoteMixClient) Read(p *sim.Proc, key kv.Key, fields []string) (kv.Record, error) {
	c.n++
	if c.every <= 0 || c.n%c.every != 0 {
		return c.Client.Read(p, key, fields)
	}
	*c.remote++
	src := c.src
	srcID := src.ID()
	hop := src.Group().Floor(srcID, c.dst.ID())
	back := src.Group().Floor(c.dst.ID(), srcID)
	fut := sim.NewFuture[remoteResp](src.Kernel())
	server := c.server
	src.Send(c.dst.ID(), hop, func(ds *sim.Shard) {
		// Serve the read as a fresh process on the destination segment —
		// delivery runs in event context and must not block — then ship
		// the response home, where the future completes on the source
		// shard's kernel.
		ds.Kernel().Go("megascale-remote-read", func(rp *sim.Proc) {
			// server is the destination segment's client (megaSegment.server
			// is only ever touched by code delivered here), so reaching its
			// kernel from this closure is the sanctioned pattern, not a
			// sending-side leak. Every remote read of the segment shares it,
			// and its record is refilled by the next one (kv.Client): the
			// copy is what may leave for another shard's kernel thread.
			rec, err := server.Read(rp, key, fields)
			if rec != nil {
				rec = rec.Clone()
			}
			resp := remoteResp{rec: rec, err: err}
			// The reply future is the sanctioned cross-shard handle; the
			// engine keys generic Future cells by Origin, so fut.val merges
			// every instantiation's payload (DESIGN.md §9, soundness boundary).
			//simlint:ignore shardsafe reply future; generic cells merge instantiations in the points-to engine
			ds.Send(srcID, back, func(*sim.Shard) { fut.Set(resp) })
		})
	})
	resp := fut.Await(p)
	return resp.rec, resp.err
}

// RunMegaScale builds the deployment and runs the session churn to
// completion. Every output is a pure function of the options — shard
// worker count and adaptive windows change wall clock only.
func RunMegaScale(o MegaScaleOptions) (MegaScaleResult, error) {
	s := o.Shards
	if s < 1 {
		s = 1
	}
	if o.Nodes%s != 0 {
		return MegaScaleResult{}, fmt.Errorf("megascale: %d nodes not divisible into %d segments", o.Nodes, s)
	}
	nodesPer := o.Nodes / s
	sessionsPer := o.Sessions / int64(s)
	livePer := o.LiveSessions / s
	if livePer < 1 {
		livePer = 1
	}

	// The deployment topology: one DC per segment (its servers plus its
	// client machine) on a WAN chain. PlanShards recovers the contiguous
	// DC blocks as the shard map and derives the global and per-pair
	// conservative floors from the WAN matrix.
	topo := o.Cluster
	topo.Nodes = o.Nodes + s
	if s > 1 {
		sizes := make([]int, s)
		for i := range sizes {
			sizes[i] = nodesPer + 1
		}
		topo.Geo = &cluster.GeoTopology{
			DCSizes:   sizes,
			WANOneWay: cluster.WANChain(s, o.WANRTT),
		}
	}
	plan := cluster.PlanShards(topo, s)
	g := sim.NewShardGroup(o.Seed, plan.Shards, plan.Lookahead)
	g.SetPairLookahead(plan.PairLookahead)
	g.SetWorkers(o.Workers)

	segs := make([]*megaSegment, s)
	for i := 0; i < s; i++ {
		shard := g.Shard(i)
		k := shard.Kernel()
		// Each segment is a standalone LAN cluster on its member kernel;
		// the WAN between segments lives in the group's delivery floors.
		ccfg := o.Cluster
		ccfg.Nodes = nodesPer + 1
		clus := cluster.New(k, ccfg)
		servers := clus.Nodes[:nodesPer]
		clientNode := clus.Nodes[nodesPer]

		cfg := cassandra.DefaultConfig()
		cfg.Replication = o.Replication
		cfg.Engine.CacheBytes = 4 << 20
		cfg.Engine.MemtableBytes = 256 << 10
		cfg.Engine.SyncWAL = false
		db := cassandra.New(k, cfg, servers)

		segs[i] = &megaSegment{
			shard:      shard,
			db:         db,
			clientNode: clientNode,
			w:          ycsb.NewWorkload(ycsb.ReadMostly(o.RecordsPerSegment)),
			server:     db.NewClient(clientNode),
		}
	}

	for i := 0; i < s; i++ {
		seg := segs[i]
		dst := segs[(i+1)%s]
		every := o.RemoteEvery
		if s == 1 {
			every = 0 // a lone segment has no one to read from
		}
		loadThreads := livePer
		seg.shard.Kernel().Spawn("megascale-driver", func(p *sim.Proc) {
			local := func() kv.Client { return seg.db.NewClient(seg.clientNode) }
			ycsb.Load(p, local, seg.w, loadThreads, 0, seg.w.Spec.RecordCount)
			seg.db.FlushAll()
			p.Sleep(quiesce)
			mixed := func() kv.Client {
				return &remoteMixClient{
					Client: seg.db.NewClient(seg.clientNode),
					src:    seg.shard, dst: dst.shard, server: dst.server,
					remote: &seg.remote, every: every,
				}
			}
			seg.result = ycsb.RunSessions(p, mixed, seg.w, ycsb.SessionConfig{
				Sessions:       sessionsPer,
				Live:           livePer,
				OpsPerSession:  o.OpsPerSession,
				WarmupFraction: 0.05,
			})
		})
	}
	if err := g.Run(); err != nil {
		return MegaScaleResult{}, err
	}

	res := MegaScaleResult{Shards: s, Windows: g.Windows()}
	for _, seg := range segs {
		r := seg.result
		res.Segments = append(res.Segments, MegaScaleSegment{
			Nodes:       nodesPer,
			Sessions:    sessionsPer,
			Ops:         r.MeasuredOps,
			Throughput:  r.Throughput,
			MeanLatency: r.MeanLatency(),
			RemoteReads: seg.remote,
			Errors:      r.Errors,
			NotFound:    r.NotFound,
		})
		res.Sessions += sessionsPer
		res.TotalOps += r.MeasuredOps
		res.RemoteReads += seg.remote
		res.Errors += r.Errors
		res.Throughput += r.Throughput
	}
	return res, nil
}
