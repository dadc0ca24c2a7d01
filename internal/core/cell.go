package core

import (
	"fmt"
	"time"

	"cloudbench/internal/cassandra"
	"cloudbench/internal/cluster"
	"cloudbench/internal/consistency"
	"cloudbench/internal/geo"
	"cloudbench/internal/hbase"
	"cloudbench/internal/kv"
	"cloudbench/internal/objstore"
	"cloudbench/internal/sim"
	"cloudbench/internal/storage"
	"cloudbench/internal/trace"
	"cloudbench/internal/ycsb"
)

// The cell protocol.
//
// Every number in every report comes from the same procedure (§4.1):
// deploy one database at one (replication, consistency) point, load the
// base records, settle, run the measured tests one after another on the
// grown key space, record a row. That procedure is written once, here, as
// four steps on a deployment — deploy, attach, run, phase — and every
// experiment's cell runner is those steps plus its own row. Construction
// order (kernel → cluster → database → GC → driver spawn) and every Sleep
// are part of the figures: they fix the order of RNG draws and events.

// backend is a cell's whole database description: which system, at which
// replication factor, with the knobs that system has. Its zero knobs are
// the paper's configuration — JVM GC pauses on, Cassandra
// read_repair_chance 1.0, HBase in-memory replication, no replica
// MutationStage jitter — and a cell that runs anything else says so here.
type backend struct {
	db string // "HBase", "Cassandra" or "ObjStore"
	rf int
	// lv is Cassandra's (read, write) consistency pair; its Name labels
	// the cell's rows for HBase ("strong") too.
	lv ConsistencySetting

	// ObjStore: anti-entropy period and read policy.
	interval time.Duration
	mode     objstore.ReadMode

	// Cassandra across datacenters (dcs > 0): dcs blocks of
	// geoServersPerDC servers plus one client-attach machine on a WAN
	// chain of the given RTT, perDC replicas in each (rf is unused), and
	// optionally every client wrapped in the SLA-adaptive ladder.
	dcs      int
	rtt      time.Duration
	perDC    []int
	adaptive bool

	// noGC turns the JVM stop-the-world pauses off. Both databases are
	// JVM-hosted in the paper's testbed, and pauses are what create
	// replica lag, staleness at CL=ONE and the slow-replica tail that ALL
	// writes wait out; geo and tracebreak measure effects they would
	// only smear.
	noGC bool
	// noReadRepair sets Cassandra's read_repair_chance to 0: Fig. 1's
	// read-repair-off twin cells (F4′). The paper's 1.0 is the thrift-era
	// column-family default: §4.1 and §4.3 attribute first-order effects
	// to read repair, which is only possible with global repair on
	// (nearly) every read.
	noReadRepair bool
	// syncRepl replaces HBase's in-memory replication with synchronous
	// disk replication: Fig. 1's sync-replication twin cells (F2′).
	syncRepl bool
	// stageDelay is the mean of Cassandra's per-mutation replica-stage
	// scheduling jitter (cassandra.Config.MutationStageMeanDelay). At zero
	// the fan-out delivers strictly FIFO and a CL=ONE read can never
	// overtake a pending apply; the cells that measure staleness turn it
	// on, because that per-message reordering is the real-world CL=ONE
	// visibility window.
	stageDelay time.Duration
}

func hbaseAt(rf int) backend {
	return backend{db: "HBase", rf: rf, lv: ConsistencySetting{Name: "strong"}}
}

func cassandraAt(rf int, lv ConsistencySetting) backend {
	return backend{db: "Cassandra", rf: rf, lv: lv}
}

// level names the backend's consistency setting for reports.
func (b backend) level() string {
	if b.db == "ObjStore" {
		return "async/" + b.mode.String()
	}
	return b.lv.Name
}

// config names the configuration the backend runs: "paper", or the
// counterfactual it switches on.
func (b backend) config() string {
	switch {
	case b.noReadRepair:
		return "read-repair-off"
	case b.syncRepl:
		return "sync-replication"
	}
	return "paper"
}

// String labels the backend in sweep errors, naming a counterfactual.
func (b backend) String() string {
	if b.dcs > 0 {
		return fmt.Sprintf("%ddc/%v/%s/%s", b.dcs, b.rtt, b.lv.Name, rfLabel(b.perDC))
	}
	s := fmt.Sprintf("%s/%s/rf%d", b.db, b.level(), b.rf)
	if c := b.config(); c != "paper" {
		s += "/" + c
	}
	return s
}

// deployment is one freshly provisioned database under test.
type deployment struct {
	k         *sim.Kernel
	clus      *cluster.Cluster
	newClient ycsb.ClientFactory
	flush     func()
	gc        *cluster.GCController

	// backends, exactly one non-nil
	hb  *hbase.DB
	ca  *cassandra.DB
	obj *objstore.DB
	// ctrl is the adaptive cells' shared ladder controller (nil elsewhere).
	ctrl *geo.Controller

	spec    ycsb.Spec // the load-phase workload the deployment is split for
	records int64     // key-space size, carried from phase to phase
	oracle  *consistency.Oracle
	tracer  *trace.Tracer
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

// deploy provisions the backend, configured as b says, on the paper's
// testbed — serverNodes database machines plus one client machine (which
// also hosts the HBase master) on one rack — or, for a geo backend, one
// such block per datacenter, with HBase regions pre-split for spec's key
// space. Client
// threads round-robin across the attach machines (the ycsb runner calls
// the factory once per thread, in thread order, so the assignment is
// deterministic).
//
// The cell runs on one sequential kernel seeded with o.Seed. Benchmark
// clients touch every node directly (SendTo/RoundTrip are process-carried),
// so a cell's model cannot be split across member kernels without changing
// its event order; RunMegaScale, whose segments are independent clusters,
// is the one experiment on sim.ShardGroup.
func deploy(o Options, b backend, spec ycsb.Spec) *deployment {
	dcs, spd := 1, serverNodes // servers per datacenter
	if b.dcs > 0 {
		dcs, spd = b.dcs, geoServersPerDC
	}
	ccfg := o.Cluster
	ccfg.Nodes = dcs * (spd + 1)
	if b.dcs > 0 {
		sizes := make([]int, dcs)
		for i := range sizes {
			sizes[i] = spd + 1
		}
		ccfg.Geo = &cluster.GeoTopology{
			DCSizes:   sizes,
			WANOneWay: cluster.WANChain(dcs, b.rtt),
			WANJitter: geoWANJitter,
		}
	}

	d := &deployment{spec: spec, k: sim.NewKernel(o.Seed)}
	d.clus = cluster.New(d.k, ccfg)
	var servers, attach []*cluster.Node
	for dc := 0; dc < dcs; dc++ {
		block := d.clus.Nodes[dc*(spd+1):][:spd+1]
		servers = append(servers, block[:spd]...)
		attach = append(attach, block[spd])
	}

	switch b.db {
	case "HBase":
		cfg := hbase.DefaultConfig()
		cfg.Replication = b.rf
		cfg.Engine = engineConfig(o)
		cfg.MemReplication = !b.syncRepl
		splits := spec.SplitPoints(serverNodes * cfg.RegionsPerServer)
		db := hbase.New(d.k, cfg, servers, attach[0], splits)
		d.hb, d.flush = db, db.FlushAll
		d.newClient = func() kv.Client { return db.NewClient(attach[0]) }
	case "Cassandra":
		cfg := cassandra.DefaultConfig()
		cfg.Replication = b.rf
		cfg.DCReplicas = b.perDC
		cfg.Engine = engineConfig(o)
		cfg.Engine.SyncWAL = false // commitlog_sync: periodic
		cfg.ReadRepairChance = 1.0
		if b.noReadRepair {
			cfg.ReadRepairChance = 0
		}
		cfg.MutationStageMeanDelay = b.stageDelay
		if b.adaptive {
			d.ctrl = geo.NewController(geo.ControllerConfig{
				Ladder:   geo.WriteLadder(kv.LocalQuorum),
				Deadline: geoSLADeadline,
				// Trust the estimate early so the step-down transient lands
				// inside the warmup window at every profile scale, and hold
				// the re-probe past the measured run so probe ops (paying
				// the strong level's WAN price) cannot pollute the p99.
				MinSamples: 10,
				Cooldown:   30 * time.Second,
			})
		} else {
			cfg.ReadCL, cfg.WriteCL = b.lv.Read, b.lv.Write
		}
		db := cassandra.New(d.k, cfg, servers)
		d.ca, d.flush = db, db.FlushAll
		var next int
		d.newClient = func() kv.Client {
			base := db.NewClient(attach[next%len(attach)])
			next++
			if d.ctrl == nil {
				return base
			}
			return geo.NewClient(d.ctrl, func(s geo.Stage) kv.Client {
				return base.WithConsistency(s.Read, s.Write)
			})
		}
	default:
		// Unlike Cassandra's periodic commitlog sync, the object store's
		// engine keeps SyncWAL: the W=1 ack's entire promise is one
		// durable copy.
		cfg := objstore.DefaultConfig()
		cfg.Replication = b.rf
		cfg.Engine = engineConfig(o)
		cfg.ReadMode = b.mode
		cfg.ReplicatorInterval = b.interval
		db := objstore.New(d.k, cfg, servers)
		d.obj, d.flush = db, db.FlushAll
		d.newClient = func() kv.Client { return db.NewClient(attach[0]) }
	}
	if !b.noGC {
		d.gc = cluster.StartGC(d.k, o.GC, servers)
	}
	return d
}

// attach wires the cell's instruments — a consistency oracle, a request
// tracer, either may be nil — into the deployed backend and into every
// later phase's RunConfig. The object store's oracle runs under AckAsync
// semantics: a client that reads an older version while the newer write's
// replication is still in flight is an async regression (the priced-in
// visibility cost of ack-before-replicate), not a monotonicity violation.
func (d *deployment) attach(oracle *consistency.Oracle, tr *trace.Tracer) {
	d.oracle, d.tracer = oracle, tr
	switch {
	case d.hb != nil:
		d.hb.SetOracle(oracle)
		d.hb.SetTracer(tr)
	case d.ca != nil:
		d.ca.SetOracle(oracle)
		d.ca.SetTracer(tr)
	default:
		if oracle != nil {
			oracle.SetAckSemantics(consistency.AckAsync)
		}
		d.obj.SetOracle(oracle)
		d.obj.SetTracer(tr)
	}
}

// run executes the cell: it spawns the benchmark driver, loads the
// deployment's base records on loadThreads client threads, lets flushes
// settle, hands the driver to body for the measured phases, and runs the
// simulation to completion — stopping the GC pause processes and the
// object store's anti-entropy daemon once the driver finishes so the
// kernel can drain.
func (d *deployment) run(loadThreads int, body func(p *sim.Proc)) error {
	d.k.Spawn("bench-driver", func(p *sim.Proc) {
		defer func() {
			if d.gc != nil {
				d.gc.Stop()
			}
			if d.obj != nil {
				d.obj.Stop()
			}
		}()
		w := ycsb.NewWorkload(d.spec)
		ycsb.Load(p, d.newClient, w, loadThreads, 0, w.Spec.RecordCount)
		if d.flush != nil {
			d.flush()
		}
		p.Sleep(quiesce)
		d.records = w.Inserted()
		body(p)
	})
	return d.k.Run()
}

// stressRun is the stress benchmarks' client shape (§4.2): a constant
// number of client threads at full speed, or throttled to target ops/s.
func (o Options) stressRun(target float64) ycsb.RunConfig {
	return ycsb.RunConfig{
		Threads:          o.Threads,
		Ops:              o.StressOps,
		TargetThroughput: target,
		WarmupFraction:   warmupFraction,
	}
}

// phase runs one measured test on the loaded deployment. The key space is
// whatever the load and the phases before this one left behind: inserts
// grow it, and the next phase's reads and scans see the grown space (the
// insert → scan dependency of Fig. 1, read-latest → scan of Fig. 2).
func (d *deployment) phase(p *sim.Proc, spec ycsb.Spec, rcfg ycsb.RunConfig) ycsb.Result {
	spec.RecordCount = d.records
	w := ycsb.NewWorkload(spec)
	rcfg.Oracle, rcfg.Tracer = d.oracle, d.tracer
	res := ycsb.Run(p, d.newClient, w, rcfg)
	d.records = w.Inserted()
	return res
}
