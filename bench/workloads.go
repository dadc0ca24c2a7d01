package main

import (
	"crypto/sha256"
	"fmt"
	"hash"
	"runtime"
	"sort"
	"time"

	"cloudbench/internal/cassandra"
	"cloudbench/internal/cluster"
	"cloudbench/internal/consistency"
	"cloudbench/internal/core"
	"cloudbench/internal/hbase"
	"cloudbench/internal/kv"
	"cloudbench/internal/objstore"
	"cloudbench/internal/sim"
	"cloudbench/internal/stats"
	"cloudbench/internal/trace"
	"cloudbench/internal/ycsb"
)

// sizes are the per-rep sizes of the four workloads. They are part of the
// benchmark's definition: results taken at different sizes do not compare,
// so the env block of every result file carries them and -compare refuses
// a mismatch. Only bench_test.go divides them.
type sizes struct {
	Records      int64 `json:"records"`
	Threads      int   `json:"threads"`
	CassMixedOps int64 `json:"cass_mixed_ops"`
	HBaseOps     int64 `json:"hbase_mixed_ops"`
	CassScanOps  int64 `json:"cass_scan_ops"`
	MegaSessions int64 `json:"mega_sessions"`
	MegaNodes    int   `json:"mega_nodes"`
	MegaLive     int   `json:"mega_live_sessions"`
}

func fullSizes() sizes {
	return sizes{
		Records:      30_000,
		Threads:      256,
		CassMixedOps: 80_000,
		HBaseOps:     250_000,
		CassScanOps:  4_000,
		MegaSessions: 150_000,
		MegaNodes:    64,
		MegaLive:     512,
	}
}

// div shrinks every op and record count by n (topology and thread counts
// stay), for tests and the ladder's reduced cells.
func (s sizes) div(n int64) sizes {
	s.Records /= n
	s.CassMixedOps /= n
	s.HBaseOps /= n
	s.CassScanOps /= n
	s.MegaSessions /= n
	return s
}

const (
	serverNodes = 15
	replication = 3
	cacheBytes  = 16 << 20
	memtable    = 256 << 10
	blockBytes  = 4 << 10
	settle      = 2 * time.Second // simulated
)

// workload is one benchmark input. The KV workloads (backend != "") share
// the rack, the record shape and the client count and differ in backend,
// operation mix and op count; mega_shards2 is core.RunMegaScale.
type workload struct {
	name    string
	backend string // "cassandra", "hbase", or "" for megascale
}

// workloads lists the inputs in BENCHMARK.json's order; the reason each
// was chosen is recorded there and in README.md.
var workloads = []workload{
	{name: "cass_mixed", backend: "cassandra"},
	{name: "hbase_mixed", backend: "hbase"},
	{name: "cass_scan", backend: "cassandra"},
	{name: "mega_shards2"},
}

// spec is the YCSB mix of a KV workload.
func (w *workload) spec(records int64) ycsb.Spec {
	if w.name == "cass_scan" {
		return ycsb.ScanShortRanges(records)
	}
	return ycsb.ReadUpdate(records)
}

// ops is the number of simulated operations one rep attempts.
func (w *workload) ops(s sizes) int64 {
	switch w.name {
	case "cass_mixed":
		return s.CassMixedOps
	case "hbase_mixed":
		return s.HBaseOps
	case "cass_scan":
		return s.CassScanOps
	default:
		return s.MegaSessions * core.DefaultMegaScaleOptions().OpsPerSession
	}
}

func findWorkload(name string) *workload {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}

// repOpts are the harness-side knobs of one rep; none changes the
// simulated result.
type repOpts struct {
	rec     *recorder           // non-nil on the traced rep: spans, client decorator, CPU profile
	oracle  *consistency.Oracle // ladder only
	tracer  *trace.Tracer       // ladder only
	noCheck bool                // ladder only: skip the read-back
}

// rep is what one fresh deployment → setup → run → check yields.
type rep struct {
	setupS  float64 // host seconds
	runS    float64 // host seconds
	mallocs uint64  // over run
	bytes   uint64  // over run
	ops     int64   // attempted in run
	failed  int64
	digest  string
	after   counters // exported counters after run
	delta   counters // after run minus after setup
	res     ycsb.Result
	mega    core.MegaScaleResult
	profile []byte // gzipped profile.proto of run, traced rep only
}

func (r rep) simopsPerS() float64 { return float64(r.ops) / r.runS }

// deployment is a freshly built database on a fresh rack.
type deployment struct {
	rack
	backend
}

// backend is what the harness needs of a database, whichever it is.
type backend interface {
	newClient() kv.Client
	// clientAt builds a client at explicit consistency levels (ignored by
	// backends that have none).
	clientAt(read, write kv.ConsistencyLevel) kv.Client
	flush()
	// counters snapshots the exported counters; nil for a backend no
	// workload runs on.
	counters() counters
	setHooks(o *consistency.Oracle, t *trace.Tracer)
	// stop ends the backend's daemons so the kernel can drain.
	stop()
}

// rack is the part of a backend adapter that does not depend on the
// database: where it runs and where its clients sit.
type rack struct {
	k          *sim.Kernel
	servers    []*cluster.Node
	clientNode *cluster.Node
}

type cassandraBackend struct {
	rack
	db *cassandra.DB
}

func (b cassandraBackend) newClient() kv.Client { return b.db.NewClient(b.clientNode) }
func (b cassandraBackend) clientAt(r, w kv.ConsistencyLevel) kv.Client {
	return b.db.NewClient(b.clientNode).WithConsistency(r, w)
}
func (b cassandraBackend) flush()             { b.db.FlushAll() }
func (b cassandraBackend) counters() counters { return cassandraCounters(b.db, b.k, b.servers) }
func (b cassandraBackend) setHooks(o *consistency.Oracle, t *trace.Tracer) {
	b.db.SetOracle(o)
	b.db.SetTracer(t)
}
func (cassandraBackend) stop() {}

type hbaseBackend struct {
	rack
	db *hbase.DB
}

func (b hbaseBackend) newClient() kv.Client                        { return b.db.NewClient(b.clientNode) }
func (b hbaseBackend) clientAt(_, _ kv.ConsistencyLevel) kv.Client { return b.newClient() }
func (b hbaseBackend) flush()                                      { b.db.FlushAll() }
func (b hbaseBackend) counters() counters                          { return hbaseCounters(b.db, b.k, b.servers) }
func (b hbaseBackend) setHooks(o *consistency.Oracle, t *trace.Tracer) {
	b.db.SetOracle(o)
	b.db.SetTracer(t)
}
func (hbaseBackend) stop() {}

// objstoreBackend exists for the ladder only: no workload runs on it.
type objstoreBackend struct {
	rack
	db *objstore.DB
}

func (b objstoreBackend) newClient() kv.Client                        { return b.db.NewClient(b.clientNode) }
func (b objstoreBackend) clientAt(_, _ kv.ConsistencyLevel) kv.Client { return b.newClient() }
func (b objstoreBackend) flush()                                      { b.db.FlushAll() }
func (objstoreBackend) counters() counters                            { return nil }
func (b objstoreBackend) setHooks(o *consistency.Oracle, t *trace.Tracer) {
	b.db.SetOracle(o)
	b.db.SetTracer(t)
}
func (b objstoreBackend) stop() { b.db.Stop() }

// deploy builds the 15+1 rack and the backend on it from the packages'
// public constructors, as examples/quickstart does.
func deploy(name string, seed int64, spec ycsb.Spec) *deployment {
	k := sim.NewKernel(seed)
	ccfg := core.QuickOptions().Cluster
	ccfg.Nodes = serverNodes + 1
	clus := cluster.New(k, ccfg)
	r := rack{k: k, servers: clus.Nodes[:serverNodes], clientNode: clus.Nodes[serverNodes]}
	d := &deployment{rack: r}

	switch name {
	case "cassandra":
		cfg := cassandra.DefaultConfig()
		cfg.Replication = replication
		cfg.Engine.CacheBytes = cacheBytes
		cfg.Engine.MemtableBytes = memtable
		cfg.Engine.BlockBytes = blockBytes
		cfg.Engine.SyncWAL = false
		cfg.ReadCL, cfg.WriteCL = kv.One, kv.One
		cfg.ReadRepairChance = 1.0
		d.backend = cassandraBackend{r, cassandra.New(k, cfg, r.servers)}
	case "hbase":
		cfg := hbase.DefaultConfig()
		cfg.Replication = replication
		cfg.Engine.CacheBytes = cacheBytes
		cfg.Engine.MemtableBytes = memtable
		cfg.Engine.BlockBytes = blockBytes
		cfg.MemReplication = true
		cfg.RegionsPerServer = 4
		splits := spec.SplitPoints(serverNodes * cfg.RegionsPerServer)
		d.backend = hbaseBackend{r, hbase.New(k, cfg, r.servers, r.clientNode, splits)}
	case "objstore":
		cfg := objstore.DefaultConfig()
		cfg.Replication = replication
		d.backend = objstoreBackend{r, objstore.New(k, cfg, r.servers)}
	default:
		panic("bench: unknown backend " + name)
	}
	return d
}

// runRep executes one rep of w. Host timestamps are taken from inside the
// driver process, at the same points of the simulation on every commit.
func (w *workload) runRep(seed int64, sz sizes, o repOpts) (rep, error) {
	// Collect the previous rep's deployment first: otherwise it is freed
	// at some point during this rep's setup or run, and both the timings
	// and the process's peak RSS depend on when.
	runtime.GC()
	if w.backend == "" {
		return runMegaRep(seed, sz, 2, core.DefaultMegaScaleOptions().WANRTT, o.rec)
	}
	rec := o.rec
	var r rep
	r.ops = w.ops(sz)
	var checkErr error

	setupSpan := rec.begin("setup", "workload")
	deploySpan := rec.begin("deploy", "setup")
	t0 := time.Now()
	spec := w.spec(sz.Records)
	d := deploy(w.backend, seed, spec)
	d.setHooks(o.oracle, o.tracer)
	gc := cluster.StartGC(d.k, core.QuickOptions().GC, d.servers)
	deploySpan.end()

	d.k.Spawn("bench-driver", func(p *sim.Proc) {
		defer gc.Stop()
		defer d.stop()
		wl := ycsb.NewWorkload(spec)
		loadSpan := rec.begin("load", "setup")
		loadErrs := ycsb.Load(p, d.newClient, wl, sz.Threads, 0, sz.Records)
		d.flush()
		loadSpan.end()
		settleSpan := rec.begin("settle", "setup")
		p.Sleep(settle)
		settleSpan.end()
		r.setupS = time.Since(t0).Seconds()
		setupSpan.end()

		factory := d.newClient
		if rec != nil {
			factory = rec.wrap(d.newClient)
		}
		before := d.counters()
		var m0, m1 runtime.MemStats
		runSpan := rec.begin("run", "workload")
		stopProfile := rec.startProfile()
		runtime.ReadMemStats(&m0)
		tRun := time.Now()
		r.res = ycsb.Run(p, factory, wl, ycsb.RunConfig{
			Threads: sz.Threads, Ops: r.ops, Oracle: o.oracle, Tracer: o.tracer,
		})
		r.runS = time.Since(tRun).Seconds()
		runtime.ReadMemStats(&m1)
		r.profile = stopProfile()
		runSpan.end()
		r.mallocs, r.bytes = m1.Mallocs-m0.Mallocs, m1.TotalAlloc-m0.TotalAlloc
		r.after = d.counters()
		r.delta = r.after.sub(before)
		r.failed = loadErrs + r.res.Errors
		r.digest = kvDigest(r.res, r.after)

		if !o.noCheck {
			checkSpan := rec.begin("check", "workload")
			// Read at the strongest level the backend has, so a replica
			// that missed an acknowledged write cannot hide behind a
			// luckier one.
			checkErr = readBack(p, d.clientAt(kv.All, kv.All), wl, sz.Records)
			checkSpan.end()
		}
	})
	if err := d.k.Run(); err != nil {
		return r, fmt.Errorf("%s: simulation: %w", w.name, err)
	}
	if checkErr != nil {
		return r, fmt.Errorf("%s: %w", w.name, checkErr)
	}
	if r.res.MeasuredOps != r.ops {
		return r, fmt.Errorf("%s: measured %d ops, requested %d", w.name, r.res.MeasuredOps, r.ops)
	}
	return r, nil
}

// megaOptions is DefaultMegaScaleOptions cut to the benchmark cell.
func megaOptions(seed int64, sz sizes, shards int, wan time.Duration) core.MegaScaleOptions {
	o := core.DefaultMegaScaleOptions()
	o.Seed = seed
	o.Nodes = sz.MegaNodes
	o.Sessions = sz.MegaSessions
	o.LiveSessions = sz.MegaLive
	o.Shards = shards
	o.Workers = 2
	o.WANRTT = wan
	return o
}

// runMegaRep times one Sessions=0 call (deploy + load only) as setup and
// one full call as run; RunMegaScale owns its deployment, so there is no
// client to wrap and nothing to read back beyond its own result.
func runMegaRep(seed int64, sz sizes, shards int, wan time.Duration, rec *recorder) (rep, error) {
	o := megaOptions(seed, sz, shards, wan)
	var r rep
	r.ops = o.Sessions * o.OpsPerSession

	// Setup is a tenth of a second here, so it is taken three times and
	// the median kept.
	setupSpan := rec.begin("setup", "workload")
	empty := o
	empty.Sessions = 0
	var setups []float64
	for i := 0; i < 3; i++ {
		t0 := time.Now()
		if _, err := core.RunMegaScale(empty); err != nil {
			return r, fmt.Errorf("mega_shards2: setup: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	r.setupS = median(setups)
	setupSpan.end()

	var m0, m1 runtime.MemStats
	runSpan := rec.begin("run", "workload")
	stopProfile := rec.startProfile()
	runtime.ReadMemStats(&m0)
	tRun := time.Now()
	res, err := core.RunMegaScale(o)
	r.runS = time.Since(tRun).Seconds()
	runtime.ReadMemStats(&m1)
	r.profile = stopProfile()
	runSpan.end()
	if err != nil {
		return r, fmt.Errorf("mega_shards2: %w", err)
	}
	r.mallocs, r.bytes = m1.Mallocs-m0.Mallocs, m1.TotalAlloc-m0.TotalAlloc
	r.mega = res
	r.failed = res.Errors
	r.digest = megaDigest(res)

	// RunMegaScale measures what follows its own per-segment warm-up, so
	// the count is below the request; the segments must account for it.
	var segOps int64
	for _, s := range res.Segments {
		segOps += s.Ops
	}
	if res.TotalOps <= 0 || res.TotalOps > r.ops || res.TotalOps != segOps {
		return r, fmt.Errorf("mega_shards2: measured %d ops (segments %d) of %d requested", res.TotalOps, segOps, r.ops)
	}
	return r, nil
}

// readBack is the post-run correctness check: a 1-in-64 sample of the
// loaded keys and every acknowledged run-phase insert must read back with
// all fields, and sampled scans must return at most limit rows in key
// order starting at or after the start key.
func readBack(p *sim.Proc, cl kv.Client, wl *ycsb.Workload, loaded int64) error {
	spec := &wl.Spec
	check := func(n int64) error {
		key := spec.KeyFor(n)
		got, err := cl.Read(p, key, nil)
		if err != nil {
			return fmt.Errorf("read-back of %s (record %d): %w", key, n, err)
		}
		if len(got) != spec.FieldCount {
			return fmt.Errorf("read-back of %s (record %d): %d fields, want %d", key, n, len(got), spec.FieldCount)
		}
		return nil
	}
	for n := int64(0); n < loaded; n += 64 {
		if err := check(n); err != nil {
			return err
		}
	}
	for n := loaded; n < wl.Inserted(); n++ {
		if err := check(n); err != nil {
			return err
		}
	}
	const limit = 50
	for n := int64(0); n < loaded; n += loaded/16 + 1 {
		start := spec.KeyFor(n)
		rows, err := cl.Scan(p, start, limit, nil)
		if err != nil {
			return fmt.Errorf("scan from %s: %w", start, err)
		}
		if len(rows) == 0 || len(rows) > limit || rows[0].Key != start {
			return fmt.Errorf("scan from %s: %d rows (limit %d), first %q", start, len(rows), limit, firstKey(rows))
		}
		if !sort.SliceIsSorted(rows, func(i, j int) bool { return rows[i].Key < rows[j].Key }) {
			return fmt.Errorf("scan from %s: rows out of key order", start)
		}
	}
	return nil
}

func firstKey(rows []kv.KV) kv.Key {
	if len(rows) == 0 {
		return ""
	}
	return rows[0].Key
}

// kvDigest hashes every simulated statistic of a run. It repeats exactly
// for a fixed seed, so two commits with equal digests simulated the same
// thing and their host-time metrics compare; a deliberate model change
// shows as a digest change, not as a slow-down.
func kvDigest(res ycsb.Result, after counters) string {
	h := sha256.New()
	fmt.Fprintln(h, res.MeasuredOps, int64(res.Elapsed), res.Errors, res.NotFound)
	hashHistogram(h, res.Overall)
	for _, t := range []ycsb.OpType{ycsb.OpRead, ycsb.OpUpdate, ycsb.OpInsert, ycsb.OpScan, ycsb.OpReadModifyWrite} {
		hashHistogram(h, res.PerOp[t])
	}
	after.hashInto(h)
	return fmt.Sprintf("%x", h.Sum(nil))
}

func hashHistogram(h hash.Hash, hist *stats.Histogram) {
	fmt.Fprintln(h, hist.Count(), int64(hist.Sum()), int64(hist.Min()), int64(hist.Max()),
		int64(hist.Percentile(50)), int64(hist.Percentile(95)), int64(hist.Percentile(99)))
}

// megaDigest hashes everything RunMegaScale reports except Windows, which
// counts barriers — an execution detail adaptive widening may change
// without changing the simulation.
func megaDigest(res core.MegaScaleResult) string {
	h := sha256.New()
	fmt.Fprintln(h, res.Shards, res.Sessions, res.TotalOps, res.RemoteReads, res.Errors, res.Throughput)
	for _, s := range res.Segments {
		fmt.Fprintln(h, s.Nodes, s.Sessions, s.Ops, s.Throughput, int64(s.MeanLatency), s.RemoteReads, s.Errors, s.NotFound)
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}
