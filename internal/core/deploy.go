package core

import (
	"time"

	"cloudbench/internal/cassandra"
	"cloudbench/internal/cluster"
	"cloudbench/internal/hbase"
	"cloudbench/internal/kv"
	"cloudbench/internal/objstore"
	"cloudbench/internal/sim"
	"cloudbench/internal/storage"
	"cloudbench/internal/ycsb"
)

// deployment is one freshly provisioned database under test.
type deployment struct {
	k          *sim.Kernel
	group      *sim.ShardGroup // non-nil when Options.Shards > 1
	clus       *cluster.Cluster
	clientNode *cluster.Node
	newClient  ycsb.ClientFactory
	flush      func()
	gc         *cluster.GCController

	// backends, exactly one non-nil
	hb  *hbase.DB
	ca  *cassandra.DB
	obj *objstore.DB
}

// engineConfig derives the storage engine configuration for an experiment.
// Block and cache sizes are scaled down with the record counts so the
// working set exceeds the cache — avoiding the fit-in-memory problem §3.1
// warns would make read benchmarks meaningless.
func engineConfig(o Options) storage.Config {
	cfg := storage.DefaultConfig()
	cfg.CacheBytes = o.CacheBytes
	cfg.BlockBytes = 4 << 10
	// Scale the memtable to the experiment so flushes happen a handful
	// of times per run rather than never or constantly.
	cfg.MemtableBytes = 256 << 10
	return cfg
}

// newKernel returns the kernel an experiment cell deploys on. With
// Options.Shards > 1 that is the home shard of a member-kernel group
// planned from the cell's topology, otherwise a plain kernel (nil group).
// Benchmark clients touch every node directly (SendTo/RoundTrip are
// process-carried), so an experiment's model cannot be split across member
// kernels without changing its event order: every cell deploys whole onto
// the home shard, which inherits the cell seed unchanged. That is what
// makes `-shards N` byte-identical to `-shards 1` for every experiment —
// with the other members idle the group runs the home shard solo, the same
// sequential event stream. Spatially partitioned parallelism is exercised
// by RunMegaScale, whose segments are independent clusters pinned one per
// shard.
func newKernel(o Options, ccfg cluster.Config) (*sim.Kernel, *sim.ShardGroup) {
	if o.Shards <= 1 {
		return sim.NewKernel(o.Seed), nil
	}
	plan := cluster.PlanShards(ccfg, o.Shards)
	g := sim.NewShardGroup(o.Seed, plan.Shards, plan.Lookahead)
	g.SetPairLookahead(plan.PairLookahead)
	return g.Shard(0).Kernel(), g
}

// newKernelAndCluster builds the 16-machine rack on newKernel's kernel.
func newKernelAndCluster(o Options) (*sim.Kernel, *cluster.Cluster, *sim.ShardGroup) {
	ccfg := o.Cluster
	ccfg.Nodes = o.ServerNodes + 1
	k, g := newKernel(o, ccfg)
	return k, cluster.New(k, ccfg), g
}

// deployHBase provisions HBase at the given replication factor with
// regions pre-split for the workload's key space.
func deployHBase(o Options, rf int, spec ycsb.Spec) *deployment {
	k, clus, group := newKernelAndCluster(o)
	servers := clus.Nodes[:o.ServerNodes]
	clientNode := clus.Nodes[o.ServerNodes]

	cfg := hbase.DefaultConfig()
	cfg.Replication = rf
	cfg.Engine = engineConfig(o)
	cfg.MemReplication = o.MemReplication
	cfg.RegionsPerServer = o.RegionsPerServer
	splits := spec.SplitPoints(o.ServerNodes * o.RegionsPerServer)
	db := hbase.New(k, cfg, servers, clientNode, splits)

	d := &deployment{
		k:          k,
		group:      group,
		clus:       clus,
		clientNode: clientNode,
		newClient:  func() kv.Client { return db.NewClient(clientNode) },
		flush:      db.FlushAll,
		hb:         db,
	}
	if o.EnableGC {
		d.gc = cluster.StartGC(k, o.GC, servers)
	}
	return d
}

// deployCassandra provisions Cassandra at the given replication factor and
// consistency levels.
func deployCassandra(o Options, rf int, readCL, writeCL kv.ConsistencyLevel) *deployment {
	k, clus, group := newKernelAndCluster(o)
	servers := clus.Nodes[:o.ServerNodes]
	clientNode := clus.Nodes[o.ServerNodes]

	cfg := cassandra.DefaultConfig()
	cfg.Replication = rf
	cfg.Engine = engineConfig(o)
	cfg.Engine.SyncWAL = false // commitlog_sync: periodic
	cfg.ReadCL = readCL
	cfg.WriteCL = writeCL
	cfg.ReadRepairChance = o.ReadRepairChance
	cfg.MutationStageMeanDelay = o.MutationStageDelay
	db := cassandra.New(k, cfg, servers)

	d := &deployment{
		k:          k,
		group:      group,
		clus:       clus,
		clientNode: clientNode,
		newClient:  func() kv.Client { return db.NewClient(clientNode) },
		flush:      db.FlushAll,
		ca:         db,
	}
	if o.EnableGC {
		d.gc = cluster.StartGC(k, o.GC, servers)
	}
	return d
}

// deployObjstore provisions the Swift-style object store at the given
// replication factor, anti-entropy interval, and read policy. Unlike
// Cassandra's periodic commitlog sync, the engine keeps SyncWAL: the W=1
// ack's entire promise is one durable copy.
func deployObjstore(o Options, rf int, interval time.Duration, mode objstore.ReadMode) *deployment {
	k, clus, group := newKernelAndCluster(o)
	servers := clus.Nodes[:o.ServerNodes]
	clientNode := clus.Nodes[o.ServerNodes]

	cfg := objstore.DefaultConfig()
	cfg.Replication = rf
	cfg.Engine = engineConfig(o)
	cfg.ReadMode = mode
	cfg.ReplicatorInterval = interval
	db := objstore.New(k, cfg, servers)

	d := &deployment{
		k:          k,
		group:      group,
		clus:       clus,
		clientNode: clientNode,
		newClient:  func() kv.Client { return db.NewClient(clientNode) },
		flush:      db.FlushAll,
		obj:        db,
	}
	if o.EnableGC {
		d.gc = cluster.StartGC(k, o.GC, servers)
	}
	return d
}

// drive runs fn as the benchmark driver process and executes the
// simulation to completion, stopping the GC pause processes and the
// object store's anti-entropy daemon once the driver finishes so the
// kernel can drain.
func (d *deployment) drive(fn func(p *sim.Proc)) error {
	d.k.Spawn("bench-driver", func(p *sim.Proc) {
		defer func() {
			if d.gc != nil {
				d.gc.Stop()
			}
			if d.obj != nil {
				d.obj.Stop()
			}
		}()
		fn(p)
	})
	if d.group != nil {
		return d.group.Run()
	}
	return d.k.Run()
}

// loadAndSettle loads the workload's base records and lets flushes settle.
func (d *deployment) loadAndSettle(p *sim.Proc, w *ycsb.Workload, threads int) {
	ycsb.Load(p, d.newClient, w, threads, 0, w.Spec.RecordCount)
	if d.flush != nil {
		d.flush()
	}
	p.Sleep(quiesce)
}
