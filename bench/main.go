// Command bench is the repository's benchmark of record: four host-time
// workloads on the simulator, four bounded end-to-end metrics and the
// host-time throughput each, and — in a separate traced run — a
// per-package CPU split, exported counters and a ladder of single-layer
// micro-benchmarks. See README.md here and BENCHMARK.json at the
// repository root, which fixes the metric names, units, directions and
// regression bounds.
//
//	go run ./bench                         # all four workloads → bench/out/result.json
//	go run ./bench -trace 1                # traced: per-layer metrics → bench/out/result-trace.json
//	go run ./bench -workload cass_scan     # one workload, in this process
//	go run ./bench -compare old.json new.json
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"syscall"
	"time"
)

const outDir = "bench/out"

// minReps is the floor on timed reps however short -seconds is: the
// second rep is what shows that the simulation repeats (equal sim_digest)
// and gives the first a spread. A run therefore lasts -seconds plus at
// most one rep, whatever the host's speed that hour.
const minReps = 2

func main() {
	spec, err := loadSpec()
	if err != nil {
		fatal(err)
	}
	var (
		workloadName = flag.String("workload", "", "run this workload in this process (default: all four, each in a fresh child)")
		seed         = flag.Int64("seed", 1, "simulation seed; the workload's inputs are a pure function of it")
		seconds      = flag.Float64("seconds", float64(spec.RunSeconds), "keep starting timed reps until this many host seconds are measured (at least 2 reps; default: BENCHMARK.json's run_seconds)")
		traced       = flag.Int("trace", 0, "1: one traced rep per workload, the ladder, per-layer metrics and bench/out/trace-<workload>.json; end-to-end numbers never come from it")
		out          = flag.String("out", "", "result file (default bench/out/result.json, or result-trace.json when traced)")
		compare      = flag.Bool("compare", false, "compare two result files: bench -compare old.json new.json")
	)
	flag.Parse()

	switch {
	case *compare:
		if flag.NArg() != 2 {
			fatal(errors.New("usage: bench -compare old.json new.json"))
		}
		ok, err := compareFiles(os.Stdout, spec, flag.Arg(0), flag.Arg(1))
		if err != nil {
			fatal(err)
		}
		if !ok {
			os.Exit(1)
		}
	case *workloadName == "":
		if err := runAll(spec, *seed, *seconds, *traced == 1, *out); err != nil {
			fatal(err)
		}
	default:
		w := findWorkload(*workloadName)
		if w == nil {
			fatal(fmt.Errorf("unknown workload %q", *workloadName))
		}
		cfg := runConfig{seed: *seed, seconds: *seconds, sizes: fullSizes(), ladderDiv: 1}
		var res workloadResult
		if *traced == 1 {
			res, err = runTraced(w, spec, cfg, filepath.Join(outDir, "trace-"+w.name+".json"))
		} else {
			res, err = runUntraced(w, spec, cfg)
		}
		res.print(os.Stdout)
		if *out != "" && err == nil {
			file := resultFile{Env: currentEnv(cfg), Workloads: map[string]workloadResult{w.name: res}}
			err = file.write(*out)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench: FAIL:", err)
		}
		// The last line of stdout is the one machine-readable record.
		defs := spec.EndToEnd
		if res.Traced {
			defs = spec.PerLayer
		}
		line, _ := json.Marshal(res.contractLine(defs, err == nil))
		fmt.Println(string(line))
		if err != nil {
			os.Exit(1)
		}
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(1)
}

// runConfig is what one workload run is parameterised by.
type runConfig struct {
	seed    int64
	seconds float64
	sizes   sizes
	// Only tests set these: reps is an exact number of timed reps instead
	// of seconds, ladderDiv divides the ladder's iteration counts.
	reps      int
	ladderDiv int
}

// metricValue is one reported metric: the median over the timed reps (the
// single value, on a traced run) plus the reps' own values, so -compare
// can tell a difference from the spread.
type metricValue struct {
	Unit   string    `json:"unit"`
	Median float64   `json:"median"`
	Values []float64 `json:"values"`
}

// workloadResult is one workload's record in a result file.
type workloadResult struct {
	Workload  string                 `json:"workload"`
	Traced    bool                   `json:"traced"`
	SimDigest string                 `json:"sim_digest"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Reps      int                    `json:"reps"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func (r workloadResult) print(w *os.File) {
	kind := "end-to-end"
	if r.Traced {
		kind = "per-layer (traced)"
	}
	fmt.Fprintf(w, "== %s: %s metrics, %d timed rep(s), attempted %d ops, failed %d\n", r.Workload, kind, r.Reps, r.Attempted, r.Failed)
	fmt.Fprintf(w, "sim_digest %s\n", r.SimDigest)
	names := make([]string, 0, len(r.Metrics))
	for name := range r.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		m := r.Metrics[name]
		if len(m.Values) > 1 {
			lo, hi := minMax(m.Values)
			fmt.Fprintf(w, "%-36s %14.6g %-6s min %.6g max %.6g n %d\n", name, m.Median, m.Unit, lo, hi, len(m.Values))
		} else {
			fmt.Fprintf(w, "%-36s %14.6g %s\n", name, m.Median, m.Unit)
		}
	}
}

// contractLine is the JSON object the driver reads from the last line:
// the metrics BENCHMARK.json lists for this kind of run, no others.
func (r workloadResult) contractLine(defs []metricSpec, correct bool) map[string]any {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := make(map[string]value, len(defs))
	for _, d := range defs {
		if m, ok := r.Metrics[d.Name]; ok {
			metrics[d.Name] = value{m.Median, m.Unit}
		}
	}
	attempted := r.Attempted
	if attempted < 1 {
		attempted = 1 // failed before the first rep finished; correct is false
	}
	return map[string]any{"correct": correct, "attempted": attempted, "failed": r.Failed, "metrics": metrics}
}

// collect turns computed values into the spec's metric list, and insists
// the two agree: a metric BENCHMARK.json names must be computed, and
// nothing it does not name is reported.
func collect(defs []metricSpec, values map[string][]float64) (map[string]metricValue, error) {
	out := make(map[string]metricValue, len(defs))
	for _, d := range defs {
		vs, ok := values[d.Name]
		if !ok || len(vs) == 0 {
			return out, fmt.Errorf("metric %s is in BENCHMARK.json but was not computed", d.Name)
		}
		out[d.Name] = metricValue{Unit: d.Unit, Median: median(vs), Values: vs}
	}
	for name := range values {
		if _, ok := out[name]; !ok {
			return out, fmt.Errorf("metric %s was computed but is not in BENCHMARK.json", name)
		}
	}
	return out, nil
}

// runUntraced is the measurement of record: full-size timed reps until
// -seconds of host time (at least minReps), each on a fresh deployment.
// There is no warm-up rep: measured on fresh processes, the first rep's
// run is no slower than the later ones'; only its setup is, by about a
// tenth (the page faults of a growing heap). Every rep must yield the same
// sim_digest.
func runUntraced(w *workload, spec *benchSpec, cfg runConfig) (workloadResult, error) {
	res := workloadResult{Workload: w.name}
	values := map[string][]float64{}
	start := time.Now()
	for res.Reps < cfg.reps || (cfg.reps == 0 && (res.Reps < minReps || time.Since(start).Seconds() < cfg.seconds)) {
		r, err := w.runRep(cfg.seed, cfg.sizes, repOpts{})
		if err != nil {
			return res, err
		}
		if res.SimDigest == "" {
			res.SimDigest = r.digest
		}
		if r.digest != res.SimDigest {
			return res, fmt.Errorf("%s: sim_digest differs between reps of one seed: %s vs %s", w.name, r.digest, res.SimDigest)
		}
		res.Reps++
		res.Attempted += r.ops
		res.Failed += r.failed
		values["simops_per_s"] = append(values["simops_per_s"], r.simopsPerS())
		values["allocs_per_simop"] = append(values["allocs_per_simop"], float64(r.mallocs)/float64(r.ops))
		values["bytes_per_simop"] = append(values["bytes_per_simop"], float64(r.bytes)/float64(r.ops))
		values["setup_s"] = append(values["setup_s"], r.setupS)
	}
	values["peak_rss_mb"] = []float64{peakRSSMB()}
	var err error
	res.Metrics, err = collect(spec.compared(), values)
	if err == nil && res.Failed != 0 {
		err = fmt.Errorf("%s: %d of %d operations failed", w.name, res.Failed, res.Attempted)
	}
	return res, err
}

// peakRSSMB is this process's high-water resident set. One workload runs
// per process (runAll forks a child for each), so heaps do not leak from
// one workload into the next one's peak.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// runAll runs every workload in a fresh child of this binary and merges
// the children's records into one result file.
func runAll(spec *benchSpec, seed int64, seconds float64, traced bool, out string) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	if out == "" {
		out = filepath.Join(outDir, "result.json")
		if traced {
			out = filepath.Join(outDir, "result-trace.json")
		}
	}
	merged := resultFile{Workloads: map[string]workloadResult{}}
	for _, w := range spec.Workloads {
		part := filepath.Join(outDir, "part-"+w.Name+".json")
		args := []string{
			"-workload", w.Name, "-seed", fmt.Sprint(seed), "-seconds", fmt.Sprint(seconds), "-out", part,
		}
		if traced {
			args = append(args, "-trace", "1")
		}
		cmd := exec.Command(self, args...)
		cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
		if err := cmd.Run(); err != nil {
			return fmt.Errorf("workload %s: %w", w.Name, err)
		}
		file, err := readResultFile(part)
		if err != nil {
			return err
		}
		merged.Env = file.Env
		merged.Workloads[w.Name] = file.Workloads[w.Name]
		if err := os.Remove(part); err != nil {
			return err
		}
	}
	if err := merged.write(out); err != nil {
		return err
	}
	fmt.Println("wrote", out)
	return nil
}
