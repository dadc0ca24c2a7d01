package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"

	"cloudbench/internal/core"
)

// runTraced is the per-layer run: one untraced rep (the digest of record
// and the denominator of the tracing overhead), one traced rep (spans,
// client decorator, CPU profile of run), then the ladder. Its numbers are
// never used as end-to-end metrics.
func runTraced(w *workload, spec *benchSpec, cfg runConfig, tracePath string) (workloadResult, error) {
	res := workloadResult{Workload: w.name, Traced: true, Reps: 1}
	base, err := w.runRep(cfg.seed, cfg.sizes, repOpts{})
	if err != nil {
		return res, err
	}
	res.SimDigest = base.digest

	rec := newRecorder(w.name)
	root := rec.begin("workload", "")
	tr, err := w.runRep(cfg.seed, cfg.sizes, repOpts{rec: rec})
	root.end()
	if err != nil {
		return res, err
	}
	res.Attempted, res.Failed = tr.ops, tr.failed
	if tr.digest != base.digest {
		return res, fmt.Errorf("%s: traced sim_digest %s differs from untraced %s: tracing changed the simulation", w.name, tr.digest, base.digest)
	}

	values := counterMetrics(tr, rec)
	cpu, err := cpuByLayer(tr.profile)
	if err != nil {
		return res, err
	}
	for _, l := range layers {
		values[l+".cpu_ns_per_simop"] = float64(cpu[l]) / float64(tr.ops)
	}
	values["bench.simops_per_s"] = base.simopsPerS()
	values["bench.trace_overhead_ratio"] = base.simopsPerS() / tr.simopsPerS()

	ladderSpan := rec.begin("ladder", "")
	ladder, err := runLadder(rec, cfg.seed, cfg.sizes, cfg.ladderDiv)
	ladderSpan.end()
	if err != nil {
		return res, err
	}
	for name, v := range ladder {
		values[name] = v
	}

	one := make(map[string][]float64, len(values))
	for name, v := range values {
		one[name] = []float64{v}
	}
	if res.Metrics, err = collect(spec.PerLayer, one); err != nil {
		return res, err
	}
	if err := writeTrace(tracePath, currentEnv(cfg), rec, cpu); err != nil {
		return res, err
	}
	for _, name := range []string{"consistency.hooks_nil_allocs", "trace.nil_allocs"} {
		if values[name] != 0 {
			return res, fmt.Errorf("%s = %g: a detached hook allocates", name, values[name])
		}
	}
	if res.Failed != 0 {
		return res, fmt.Errorf("%s: %d of %d operations failed", w.name, res.Failed, res.Attempted)
	}
	return res, nil
}

// counterMetrics derives the per-workload counter metrics from the traced
// rep's exported-counter deltas, the YCSB result and the client
// decorator. All are simulated quantities: exact for a fixed seed. A
// layer that is not on the workload's path reads 0; mega_shards2 exposes
// only what core.MegaScaleResult carries.
func counterMetrics(r rep, rec *recorder) map[string]float64 {
	d, ops := r.delta, float64(r.ops)
	perOp := func(name string) float64 { return float64(d[name]) / ops }
	us := func(ns int64) float64 { return float64(ns) / 1e3 }
	verbP99 := func(v verb) float64 { return us(int64(rec.verbs[v].latency.Percentile(99))) }
	cpuSlots := float64(serverNodes * core.QuickOptions().Cluster.CPUSlots)

	v := map[string]float64{
		"kv.read.count":         float64(rec.verbs[verbRead].count),
		"kv.update.count":       float64(rec.verbs[verbUpdate].count),
		"kv.insert.count":       float64(rec.verbs[verbInsert].count),
		"kv.scan.count":         float64(rec.verbs[verbScan].count),
		"kv.read.sim_p99_us":    verbP99(verbRead),
		"kv.update.sim_p99_us":  verbP99(verbUpdate),
		"kv.scan.sim_p99_us":    verbP99(verbScan),
		"kv.scan.rows_per_call": 0,

		"cluster.cpu_busy_share":      0,
		"cluster.cpu_mean_wait_us":    us(r.after["cluster.cpu_mean_wait_ns"]) / serverNodes,
		"cluster.disk_busy_share":     0,
		"cluster.net_bytes_per_simop": perOp("cluster.net_bytes"),

		"storage.gets_per_simop":               perOp("storage.gets"),
		"storage.puts_per_simop":               perOp("storage.puts"),
		"storage.scans_per_simop":              perOp("storage.scans"),
		"storage.flushes":                      float64(d["storage.flushes"]),
		"storage.compactions":                  float64(d["storage.compactions"]),
		"storage.compacted_bytes_per_wal_byte": d.ratio("storage.compacted_bytes", "storage.wal_bytes"),
		"storage.cache_hit_rate":               0,
		"storage.wal_appends_per_batch":        d.ratio("storage.wal_appends", "storage.wal_batches"),

		"cassandra.blocking_repairs_per_read": d.ratio("cassandra.blocking_repairs", "cassandra.reads"),
		"cassandra.async_repairs_per_read":    d.ratio("cassandra.async_repairs", "cassandra.reads"),
		"cassandra.repair_writes_per_simop":   perOp("cassandra.repair_writes"),
		"cassandra.digest_mismatch_per_read":  d.ratio("cassandra.digest_mismatch", "cassandra.reads"),
		"cassandra.timeouts":                  float64(d["cassandra.timeouts"]),
		"cassandra.unavailable":               float64(d["cassandra.unavailable"]),

		"hbase.replication_sends_per_write": d.ratio("hbase.replication_sends", "hbase.writes"),
		"hdfs.blocks_written":               float64(d["hdfs.blocks_written"]),
		"hdfs.remote_reads":                 float64(d["hdfs.remote_reads"]),
	}
	if scans := rec.verbs[verbScan]; scans.count > 0 {
		v["kv.scan.rows_per_call"] = float64(scans.rows) / float64(scans.count)
	}
	if simNs := float64(d["sim.now_ns"]); simNs > 0 {
		v["cluster.cpu_busy_share"] = float64(d["cluster.cpu_busy_ns"]) / (simNs * cpuSlots)
		v["cluster.disk_busy_share"] = float64(d["cluster.disk_busy_ns"]) / (simNs * serverNodes)
	}
	if touches := d["storage.cache_hits"] + d["storage.cache_misses"]; touches > 0 {
		v["storage.cache_hit_rate"] = float64(d["storage.cache_hits"]) / float64(touches)
	}

	if r.res.Overall != nil { // a KV workload
		v["ycsb.ops"] = float64(r.res.MeasuredOps)
		v["ycsb.errors"] = float64(r.res.Errors)
		v["ycsb.not_found"] = float64(r.res.NotFound)
		v["ycsb.sim_ops_per_sim_s"] = r.res.Throughput
		v["ycsb.sim_p50_us"] = us(int64(r.res.Overall.Percentile(50)))
		v["ycsb.sim_p99_us"] = us(int64(r.res.Overall.Percentile(99)))
		v["sim.windows"] = 0 // one kernel, no barriers
	} else {
		var notFound int64
		for _, s := range r.mega.Segments {
			notFound += s.NotFound
		}
		v["ycsb.ops"] = float64(r.mega.TotalOps)
		v["ycsb.errors"] = float64(r.mega.Errors)
		v["ycsb.not_found"] = float64(notFound)
		v["ycsb.sim_ops_per_sim_s"] = r.mega.Throughput
		v["ycsb.sim_p50_us"] = 0 // RunMegaScale reports no percentiles
		v["ycsb.sim_p99_us"] = 0
		v["sim.windows"] = float64(r.mega.Windows)
	}
	return v
}

// traceFile is bench/out/trace-<workload>.json.
type traceFile struct {
	Env          env              `json:"env"`
	Workload     string           `json:"workload"`
	Spans        []span           `json:"spans"`
	DroppedSpans int64            `json:"dropped_spans"` // client operations past the first maxSpans
	CPUNsByLayer map[string]int64 `json:"cpu_ns_by_layer"`
}

func writeTrace(path string, e env, rec *recorder, cpu map[string]int64) error {
	data, err := json.Marshal(traceFile{
		Env: e, Workload: rec.workload, Spans: rec.spans, DroppedSpans: rec.dropped, CPUNsByLayer: cpu,
	})
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
