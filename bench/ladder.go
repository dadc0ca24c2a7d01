package main

import (
	"flag"
	"fmt"
	"math/rand"
	"strconv"
	"testing"
	"time"

	"cloudbench/internal/cluster"
	"cloudbench/internal/consistency"
	"cloudbench/internal/core"
	"cloudbench/internal/hdfs"
	"cloudbench/internal/kv"
	"cloudbench/internal/sim"
	"cloudbench/internal/stats"
	"cloudbench/internal/storage"
	"cloudbench/internal/trace"
	"cloudbench/internal/ycsb"
)

// The ladder drives one layer's public API alone, from a bench-owned
// sim.Proc, so a later change to that layer has a number of its own to
// move. Each rung runs under testing.Benchmark at a fixed iteration count
// (fixed so allocs/call repeat and the whole ladder fits the traced run's
// time budget); host ns and allocs per call are reported.

// rung is one ladder entry. It reports <stem>_ns and/or <stem>_allocs.
type rung struct {
	stem       string
	n          int
	ns, allocs bool
	fn         func(b *testing.B) error
}

// ladderSeed seeds every rung's kernel and generator: the rungs measure
// host cost, and one fixed simulated input keeps allocs/call exact.
const ladderSeed int64 = 1

// perCall is the custom metric a rung reports when its unit of work is not
// one b.N iteration.
const perCall = "ns/call"

// sink keeps the compiler from discarding a measured call's result.
var sink any

func ladderRungs() []rung {
	return []rung{
		{"sim.sleep", 320_000, true, true, simSleep(0)},
		{"sim.spawn_go", 160_000, true, true, simSpawnGo},
		{"sim.queue", 400_000, true, false, simQueue},
		{"sim.resource_use", 160_000, true, false, simResourceUse},
		{"sim.wheel_100k", 320_000, true, false, simSleep(100_000)},
		{"sim.shard_barrier", 20_000, true, false, simShardBarrier},
		{"sim.shard_send", 200_000, true, false, simShardSend},
		{"cluster.roundtrip", 40_000, true, false, clusterRoundTrip},
		{"cluster.exec", 160_000, true, false, clusterExec},
		{"storage.apply", 40_000, true, true, storageApply},
		{"storage.get_mem", 200_000, true, false, storageRead(false, engineGet)},
		{"storage.get_sst", 100_000, true, true, storageRead(true, engineGet)},
		{"storage.scan50", 4_000, true, true, storageRead(true, engineScan50)},
		{"storage.row_merge", 200_000, true, true, storageRowMerge},
		{"storage.wal_append", 100_000, true, false, storageWALAppend},
		{"cassandra.read_one", 8_000, true, true, backendOp("cassandra", kv.One, opRead)},
		{"cassandra.read_quorum", 8_000, true, false, backendOp("cassandra", kv.Quorum, opRead)},
		{"cassandra.update_one", 8_000, true, true, backendOp("cassandra", kv.One, opUpdate)},
		{"cassandra.update_all", 8_000, true, false, backendOp("cassandra", kv.All, opUpdate)},
		{"cassandra.scan50", 400, true, true, backendOp("cassandra", kv.One, opScan)},
		{"hbase.read", 16_000, true, true, backendOp("hbase", kv.One, opRead)},
		{"hbase.update", 16_000, true, true, backendOp("hbase", kv.One, opUpdate)},
		{"hbase.scan50", 2_000, true, true, backendOp("hbase", kv.One, opScan)},
		{"hdfs.create_1mb", 4_000, true, false, hdfsCreate},
		{"objstore.read", 16_000, true, true, backendOp("objstore", kv.One, opRead)},
		{"objstore.update", 8_000, true, true, backendOp("objstore", kv.One, opUpdate)},
		{"ycsb.nextop", 200_000, true, true, ycsbNextOp},
		{"stats.record", 2_000_000, true, false, statsRecord},
		{"consistency.hooks", 200_000, true, false, oracleHooks(consistency.New())},
		{"consistency.hooks_nil", 200_000, false, true, oracleHooks(nil)},
		{"trace.op", 200_000, true, false, tracerHooks(trace.New())},
		{"trace.nil", 200_000, false, true, tracerHooks(nil)},
	}
}

// runLadder runs every rung plus the whole-cell ratios and returns the
// metrics by their final names.
func runLadder(rec *recorder, seed int64, sz sizes, div int) (map[string]float64, error) {
	testing.Init()
	out := map[string]float64{}
	for _, r := range ladderRungs() {
		r.n = max(r.n/div/16, 1) * 16 // the 16-process rungs split b.N evenly
		sp := rec.begin("ladder."+r.stem, "ladder")
		res, err := benchmarkRung(r.n, r.fn)
		sp.end()
		if err != nil {
			return nil, fmt.Errorf("ladder rung %s: %w", r.stem, err)
		}
		if r.ns {
			ns, ok := res.Extra[perCall]
			if !ok {
				ns = float64(res.T.Nanoseconds()) / float64(res.N)
			}
			out[r.stem+"_ns"] = ns
		}
		if r.allocs {
			out[r.stem+"_allocs"] = float64(res.MemAllocs) / float64(res.N)
		}
	}

	// Shard speed-up of the megascale cell: wall at 1 shard ÷ wall at 2,
	// over the workload's 80 ms WAN and over a 2 ms LAN-like link where
	// the lookahead is 40× shorter and barriers dominate. An eighth of the
	// workload's sessions keeps four extra runs inside the time budget.
	msz := sz.div(8)
	for _, c := range []struct {
		name string
		wan  time.Duration
	}{{"sim.shard_speedup_wan80ms", 80 * time.Millisecond}, {"sim.shard_speedup_lan2ms", 2 * time.Millisecond}} {
		sp := rec.begin("ladder."+c.name, "ladder")
		var wall [2]float64
		for i, shards := range []int{1, 2} {
			t0 := time.Now()
			if _, err := core.RunMegaScale(megaOptions(seed, msz, shards, c.wan)); err != nil {
				return nil, err
			}
			wall[i] = time.Since(t0).Seconds()
		}
		sp.end()
		out[c.name] = wall[0] / wall[1]
	}

	// Price of attaching the oracle and the tracer to a whole run: host
	// time of a reduced cass_mixed run with the hook ÷ without.
	w, csz := findWorkload("cass_mixed"), sz.div(8)
	sp := rec.begin("ladder.attached_slowdown", "ladder")
	defer sp.end()
	var runS [3]float64
	for i, o := range []repOpts{
		{noCheck: true},
		{noCheck: true, oracle: consistency.New()},
		{noCheck: true, tracer: trace.New()},
	} {
		r, err := w.runRep(seed, csz, o)
		if err != nil {
			return nil, err
		}
		runS[i] = r.runS
	}
	out["consistency.attached_slowdown"] = runS[1] / runS[0]
	out["trace.attached_slowdown"] = runS[2] / runS[0]
	return out, nil
}

// benchmarkRung runs fn under testing.Benchmark at exactly n iterations.
func benchmarkRung(n int, fn func(b *testing.B) error) (testing.BenchmarkResult, error) {
	if err := flag.Set("test.benchtime", strconv.Itoa(n)+"x"); err != nil {
		return testing.BenchmarkResult{}, err
	}
	var err error
	res := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		if err = fn(b); err != nil {
			b.FailNow()
		}
	})
	if err == nil && res.N != n {
		err = fmt.Errorf("ran %d of %d iterations", res.N, n)
	}
	return res, err
}

// inProc runs body as a process of k and drains the kernel.
func inProc(k *sim.Kernel, body func(p *sim.Proc) error) error {
	var err error
	k.Spawn("rung", func(p *sim.Proc) { err = body(p) })
	if runErr := k.Run(); runErr != nil {
		return runErr
	}
	return err
}

// procLoop times b.N calls of body made from one process of k.
func procLoop(b *testing.B, k *sim.Kernel, body func(p *sim.Proc, i int)) error {
	return inProc(k, func(p *sim.Proc) error {
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			body(p, i)
		}
		b.StopTimer()
		return nil
	})
}

// simSleep: 16 sleepers share b.N Sleep(25) calls — the per-event cost
// under every client thread and server stage — with `ballast` far-future
// timers pending behind them.
func simSleep(ballast int) func(b *testing.B) error {
	return func(b *testing.B) error {
		k := sim.NewKernel(ladderSeed)
		const far = sim.Duration(time.Second)
		for i := 0; i < ballast; i++ {
			k.After(far+sim.Duration(i)*1000, func() {})
		}
		for i := 0; i < 16; i++ {
			k.Spawn("sleeper", func(p *sim.Proc) {
				for j := 0; j < b.N/16; j++ {
					p.Sleep(25)
				}
			})
		}
		b.ResetTimer()
		// The sleepers finish long before the ballast is due; stopping
		// short of it keeps 100k timer firings out of the measurement.
		return k.RunUntil(sim.Time(far - 1))
	}
}

// simSpawnGo: a fan-out storm of short-lived detached processes, the
// replica-write pattern of the database models and megascale's sessions.
func simSpawnGo(b *testing.B) error {
	k := sim.NewKernel(ladderSeed)
	return procLoop(b, k, func(p *sim.Proc, i int) {
		k.Go("w", func(q *sim.Proc) { q.Sleep(10) })
		if i%8 == 7 {
			p.Sleep(10)
		}
	})
}

func simQueue(b *testing.B) error {
	k := sim.NewKernel(ladderSeed)
	q := sim.NewQueue[int](k)
	k.Spawn("consumer", func(p *sim.Proc) {
		for i := 0; i < b.N; i++ {
			q.Pop(p)
		}
	})
	return procLoop(b, k, func(p *sim.Proc, i int) {
		q.Push(i)
		if i%4 == 3 {
			p.Sleep(5)
		}
	})
}

func simResourceUse(b *testing.B) error {
	k := sim.NewKernel(ladderSeed)
	r := sim.NewResource(k, "r", 4)
	for i := 0; i < 16; i++ {
		k.Spawn("worker", func(p *sim.Proc) {
			for j := 0; j < b.N/16; j++ {
				r.Use(p, 100)
			}
		})
	}
	b.ResetTimer()
	return k.Run()
}

// simShardBarrier: two shards with nothing to do but a 1 µs tick each, at
// a 1 µs lookahead, so every window is a barrier and little else.
func simShardBarrier(b *testing.B) error {
	g := sim.NewShardGroup(ladderSeed, 2, time.Microsecond)
	for i := 0; i < 2; i++ {
		g.Shard(i).Kernel().Spawn("tick", func(p *sim.Proc) {
			for j := 0; j < b.N; j++ {
				p.Sleep(time.Microsecond)
			}
		})
	}
	b.ResetTimer()
	err := g.Run()
	b.StopTimer()
	if w := g.Windows(); w > 0 {
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(w), perCall)
	}
	return err
}

// simShardSend: cross-shard sends at the delivery floor, 64 per window so
// staging, lane merge and delivery outweigh the barrier.
func simShardSend(b *testing.B) error {
	const la = time.Millisecond
	g := sim.NewShardGroup(ladderSeed, 2, la)
	s0 := g.Shard(0)
	s0.Kernel().Spawn("sender", func(p *sim.Proc) {
		for i := 0; i < b.N; i++ {
			s0.Send(1, la, func(*sim.Shard) {})
			if i%64 == 63 {
				p.Sleep(la)
			}
		}
	})
	b.ResetTimer()
	return g.Run()
}

// idleNodes is a bare rack of n machines at the workloads' costs.
func idleNodes(n int) (*sim.Kernel, []*cluster.Node) {
	k := sim.NewKernel(ladderSeed)
	cfg := core.QuickOptions().Cluster
	cfg.Nodes = n
	return k, cluster.New(k, cfg).Nodes
}

func clusterRoundTrip(b *testing.B) error {
	k, nodes := idleNodes(2)
	return procLoop(b, k, func(p *sim.Proc, _ int) {
		nodes[0].RoundTrip(p, nodes[1], 100, 1000, func() {})
	})
}

func clusterExec(b *testing.B) error {
	k, nodes := idleNodes(1)
	return procLoop(b, k, func(p *sim.Proc, _ int) {
		nodes[0].Exec(p, 100*time.Microsecond)
	})
}

// ladderSpec is the workloads' record shape over a small key set.
var ladderSpec = ycsb.ReadUpdate(2048)

func ladderKeys() []kv.Key {
	keys := make([]kv.Key, ladderSpec.RecordCount)
	for i := range keys {
		keys[i] = ladderSpec.KeyFor(int64(i))
	}
	return keys
}

func fullRecord() kv.Record {
	rec := kv.Record{}
	for i := 0; i < ladderSpec.FieldCount; i++ {
		rec["field"+strconv.Itoa(i)] = kv.SizedValue(ladderSpec.FieldLength)
	}
	return rec
}

// newEngine is one node's store at the workloads' engine sizes on its own
// disk.
func newEngine(k *sim.Kernel) *storage.Engine {
	d := cluster.NewDisk(k, "d", cluster.DefaultDiskConfig())
	cfg := storage.DefaultConfig()
	cfg.CacheBytes, cfg.MemtableBytes, cfg.BlockBytes, cfg.SyncWAL = cacheBytes, memtable, blockBytes, false
	return storage.NewEngine(k, cfg, storage.LocalIO{Disk: d}, storage.DiskLog{Disk: d}, 1)
}

// storageApply cycles full-record writes over 2048 keys: a flush every
// ~240 applies and the compactions they trigger are part of the cost.
func storageApply(b *testing.B) error {
	k := sim.NewKernel(ladderSeed)
	e := newEngine(k)
	keys, rec := ladderKeys(), fullRecord()
	return procLoop(b, k, func(p *sim.Proc, i int) {
		e.Apply(p, keys[i%len(keys)], rec, kv.Version(i+1))
	})
}

// storageRead times read(e, p, key) against an engine holding the ladder
// keys: flushed leaves them in cache-resident SSTables only; otherwise
// only the 128 keys that fit under the flush threshold are written and
// they stay in the memtable.
func storageRead(flushed bool, read func(e *storage.Engine, p *sim.Proc, key kv.Key)) func(b *testing.B) error {
	return func(b *testing.B) error {
		k := sim.NewKernel(ladderSeed)
		e := newEngine(k)
		keys, rec := ladderKeys(), fullRecord()
		if !flushed {
			keys = keys[:128]
		}
		return inProc(k, func(p *sim.Proc) error {
			for i, key := range keys {
				e.Apply(p, key, rec, kv.Version(i+1))
			}
			if flushed {
				e.ForceFlush()
				p.Sleep(settle)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				read(e, p, keys[i%len(keys)])
			}
			b.StopTimer()
			return nil
		})
	}
}

func engineGet(e *storage.Engine, p *sim.Proc, key kv.Key)    { sink = e.Get(p, key) }
func engineScan50(e *storage.Engine, p *sim.Proc, key kv.Key) { sink = e.Scan(p, key, 50) }

// storageRowMerge is Engine.Get's inner step: a fresh row absorbing one
// full stored row.
func storageRowMerge(b *testing.B) error {
	src := storage.NewRow()
	src.Apply(fullRecord(), 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := storage.NewRow()
		r.MergeFrom(src)
		sink = r
	}
	return nil
}

func storageWALAppend(b *testing.B) error {
	k := sim.NewKernel(ladderSeed)
	d := cluster.NewDisk(k, "d", cluster.DefaultDiskConfig())
	wal := storage.NewWAL(k, storage.DiskLog{Disk: d})
	return procLoop(b, k, func(p *sim.Proc, _ int) {
		wal.Append(p, 1100)
	})
}

type ladderOp int

const (
	opRead ladderOp = iota
	opUpdate
	opScan
)

// backendOp drives one verb from one client against the workloads' own
// deployment of a backend — idle (no other clients, no GC pauses), 2048
// records loaded and flushed — at consistency level cl where the backend
// has levels.
func backendOp(backend string, cl kv.ConsistencyLevel, op ladderOp) func(b *testing.B) error {
	return func(b *testing.B) error {
		d := deploy(backend, ladderSeed, ladderSpec)
		keys := ladderKeys()
		update := kv.Record{"field0": kv.SizedValue(ladderSpec.FieldLength)}
		return inProc(d.k, func(p *sim.Proc) error {
			defer d.stop()
			wl := ycsb.NewWorkload(ladderSpec)
			if errs := ycsb.Load(p, d.newClient, wl, 64, 0, ladderSpec.RecordCount); errs != 0 {
				return fmt.Errorf("%d load errors", errs)
			}
			d.flush()
			p.Sleep(settle)
			client := d.clientAt(cl, cl)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				key := keys[i%len(keys)]
				var err error
				switch op {
				case opRead:
					sink, err = client.Read(p, key, nil)
				case opUpdate:
					err = client.Update(p, key, update)
				case opScan:
					sink, err = client.Scan(p, key, 50, nil)
				}
				if err != nil {
					return err
				}
			}
			b.StopTimer()
			return nil
		})
	}
}

func hdfsCreate(b *testing.B) error {
	k, nodes := idleNodes(serverNodes)
	hcfg := hdfs.DefaultConfig()
	hcfg.Replication = replication
	fs := hdfs.New(k, hcfg, nodes)
	return procLoop(b, k, func(p *sim.Proc, i int) {
		sink = fs.Create(p, strconv.Itoa(i), 1<<20, nodes[i%len(nodes)])
	})
}

func ycsbNextOp(b *testing.B) error {
	w := ycsb.NewWorkload(ycsb.ReadUpdate(fullSizes().Records))
	rng := rand.New(rand.NewSource(ladderSeed))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sink = w.NextOp(rng)
	}
	return nil
}

func statsRecord(b *testing.B) error {
	var h stats.Histogram
	for i := 0; i < b.N; i++ {
		h.Record(time.Duration(i%4096) * time.Microsecond)
	}
	sink = h.Count()
	return nil
}

// oracleHooks fires the write/read lifecycle the databases fire. The
// databases gate every call behind `if oracle != nil` (simlint's hookguard
// insists), so a detached hook costs them nothing; the rung calls the
// methods ungated so that with o == nil it is the package's own nil path
// that runs, and a change that makes it allocate (or panic) shows.
func oracleHooks(o *consistency.Oracle) func(b *testing.B) error {
	return func(b *testing.B) error {
		if o != nil {
			o.BeginMeasure(0)
		}
		key := kv.Key("user42")
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			ver, at := kv.Version(i+1), sim.Time(i)
			o.WriteBegin(key, ver, 3, at)                           //simlint:ignore hookguard the nil receiver is what the _nil rung measures
			o.ReplicaApply(key, ver, 0, consistency.ApplyWrite, at) //simlint:ignore hookguard as above
			o.WriteAck(key, ver, at)                                //simlint:ignore hookguard as above
			o.ReadObserved(-1, key, ver, at)                        //simlint:ignore hookguard as above
		}
		return nil
	}
}

// tracerHooks is the call-site shape of the YCSB runner and the read
// paths — a root span around a queue wait and a storage phase — ungated
// for the same reason as oracleHooks.
func tracerHooks(tr *trace.Tracer) func(b *testing.B) error {
	return func(b *testing.B) error {
		if tr != nil {
			tr.BeginMeasure(0)
		}
		return procLoop(b, sim.NewKernel(ladderSeed), func(p *sim.Proc, _ int) {
			tr.StartOp(p, trace.ClassRead) //simlint:ignore hookguard the nil receiver is what the _nil rung measures
			t0 := p.Now()
			tr.Interval(p, trace.PhaseCoordQueue, 1, t0, t0) //simlint:ignore hookguard as above
			tr.Phase(p, trace.PhaseStorage, 1, t0)           //simlint:ignore hookguard as above
			tr.EndOp(p)                                      //simlint:ignore hookguard as above
		})
	}
}
