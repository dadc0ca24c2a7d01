package main

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"cloudbench/internal/kv"
	"cloudbench/internal/sim"
)

// The command runs from the repository root, where BENCHMARK.json is.
func TestMain(m *testing.M) {
	if err := os.Chdir(".."); err != nil {
		panic(err)
	}
	os.Exit(m.Run())
}

// testSizes is every workload at 1/50 of its benchmark size.
func testSizes() sizes { return fullSizes().div(50) }

// Each workload passes its correctness checks at small scale and yields
// one sim_digest across reps and across traced and untraced runs — the
// property every host-time comparison in this benchmark rests on.
func TestWorkloadsRepeatAndTracingIsInvisible(t *testing.T) {
	for i := range workloads {
		w := &workloads[i]
		t.Run(w.name, func(t *testing.T) {
			first, err := w.runRep(7, testSizes(), repOpts{})
			if err != nil {
				t.Fatal(err)
			}
			second, err := w.runRep(7, testSizes(), repOpts{})
			if err != nil {
				t.Fatal(err)
			}
			rec := newRecorder(w.name)
			traced, err := w.runRep(7, testSizes(), repOpts{rec: rec})
			if err != nil {
				t.Fatal(err)
			}
			if first.digest != second.digest || first.digest != traced.digest {
				t.Fatalf("sim_digest not stable: %s, %s, traced %s", first.digest, second.digest, traced.digest)
			}
			other, err := w.runRep(8, testSizes(), repOpts{})
			if err != nil {
				t.Fatal(err)
			}
			if other.digest == first.digest {
				t.Fatal("sim_digest does not depend on the seed")
			}
			if first.failed != 0 || first.ops != w.ops(testSizes()) {
				t.Fatalf("ops %d failed %d, want %d and 0", first.ops, first.failed, w.ops(testSizes()))
			}
			if len(traced.profile) == 0 {
				t.Fatal("traced rep captured no CPU profile")
			}
			if _, err := cpuByLayer(traced.profile); err != nil {
				t.Fatal(err)
			}
			if w.backend != "" {
				var calls int64
				for _, v := range rec.verbs {
					calls += v.count
				}
				if calls != traced.ops {
					t.Fatalf("decorator saw %d calls for %d ops", calls, traced.ops)
				}
			}
		})
	}
}

// The traced run computes exactly the per-layer metrics BENCHMARK.json
// names (collect fails on a missing or surplus one), with the same digest
// as the untraced run, and the untraced run exactly the end-to-end ones.
func TestRunsReportTheSpecsMetrics(t *testing.T) {
	spec, err := loadSpec()
	if err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the command has %d", len(spec.Workloads), len(workloads))
	}
	for _, w := range spec.Workloads {
		if findWorkload(w.Name) == nil {
			t.Errorf("BENCHMARK.json workload %s is unknown to the command", w.Name)
		}
	}
	w := findWorkload("cass_scan")
	cfg := runConfig{seed: 1, reps: 2, sizes: testSizes(), ladderDiv: 4000}
	plain, err := runUntraced(w, spec, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(plain.Metrics) != len(spec.compared()) || plain.Reps != 2 {
		t.Fatalf("untraced: %d metrics over %d reps", len(plain.Metrics), plain.Reps)
	}
	for name, m := range plain.Metrics {
		if m.Median <= 0 {
			t.Errorf("end-to-end metric %s = %g, must never be 0", name, m.Median)
		}
	}
	traced, err := runTraced(w, spec, cfg, filepath.Join(t.TempDir(), "trace.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(traced.Metrics) != len(spec.PerLayer) {
		t.Fatalf("traced: %d metrics, BENCHMARK.json names %d", len(traced.Metrics), len(spec.PerLayer))
	}
	if traced.SimDigest != plain.SimDigest {
		t.Fatalf("traced digest %s, untraced %s", traced.SimDigest, plain.SimDigest)
	}
	if got := traced.Metrics["kv.scan.rows_per_call"].Median; got <= 0 || got > 100 {
		t.Errorf("kv.scan.rows_per_call = %g, want within (0, MaxScanLength]", got)
	}
}

func TestMedianAndMinMax(t *testing.T) {
	for _, c := range []struct {
		xs          []float64
		med, lo, hi float64
	}{
		{[]float64{3, 1, 2}, 2, 1, 3},
		{[]float64{3, 1}, 2, 1, 3},
		{[]float64{10.5, 9.1, 11.2, 10.0}, 10.25, 9.1, 11.2},
		{[]float64{4}, 4, 4, 4},
	} {
		lo, hi := minMax(c.xs)
		if m := median(c.xs); m != c.med || lo != c.lo || hi != c.hi {
			t.Errorf("median, minMax(%v) = %g, %g, %g, want %g, %g, %g", c.xs, m, lo, hi, c.med, c.lo, c.hi)
		}
	}
}

func TestLayerOfChargesLeafMostCloudbenchFrame(t *testing.T) {
	for _, c := range []struct {
		want  string
		stack []string // leaf first
	}{
		{"storage", []string{"runtime.mallocgc", "runtime.newobject", "cloudbench/internal/storage.(*Row).MergeFrom", "cloudbench/internal/storage.(*Engine).Get", "cloudbench/internal/cassandra.(*DB).read", "cloudbench/internal/ycsb.execute", "cloudbench/internal/sim.(*Kernel).spawn.func1"}},
		{"sim", []string{"runtime.chanrecv", "cloudbench/internal/sim.(*Proc).park", "cloudbench/internal/sim.(*Proc).Sleep", "cloudbench/internal/cluster.(*Node).Exec"}},
		{"sim", []string{"cloudbench/internal/sim.(*Queue[go.shape.int]).Pop", "main.simQueue.func1"}},
		{"kv", []string{"runtime.mapassign_faststr", "cloudbench/internal/kv.Record.Clone", "main.(*tracedClient).Read"}},
		{"runtime_bg", []string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker"}},
		{"runtime_bg", []string{"runtime.futex", "runtime.schedule", "runtime.mcall"}},
		{"bench", []string{"runtime.mallocgc", "main.(*recorder).op", "main.(*tracedClient).Read", "cloudbench/internal/trace.(*Tracer).StartOp"}},
		{"bench", []string{"cloudbench/bench.(*recorder).op"}},
		// Packages outside the twelve buckets are walked through, not charged.
		{"cassandra", []string{"cloudbench/internal/consistency.(*Oracle).WriteAck", "cloudbench/internal/cassandra.(*DB).write"}},
		{"runtime_bg", []string{"cloudbench/internal/lint/linttest.Run"}},
	} {
		if got := layerOf(c.stack); got != c.want {
			t.Errorf("layerOf(%v) = %s, want %s", c.stack, got, c.want)
		}
	}
}

// stubClient returns fixed, distinguishable results so the decorator can be
// shown to forward arguments and results untouched.
type stubClient struct{ calls []string }

var errStub = errors.New("stub failure")

func (s *stubClient) Read(_ *sim.Proc, key kv.Key, _ []string) (kv.Record, error) {
	s.calls = append(s.calls, "read "+string(key))
	return nil, kv.ErrNotFound
}
func (s *stubClient) Insert(_ *sim.Proc, key kv.Key, _ kv.Record) error {
	s.calls = append(s.calls, "insert "+string(key))
	return kv.ErrTimeout
}
func (s *stubClient) Update(_ *sim.Proc, key kv.Key, _ kv.Record) error {
	s.calls = append(s.calls, "update "+string(key))
	return kv.ErrUnavailable
}
func (s *stubClient) Delete(_ *sim.Proc, key kv.Key) error {
	s.calls = append(s.calls, "delete "+string(key))
	return errStub
}
func (s *stubClient) Scan(_ *sim.Proc, start kv.Key, limit int, _ []string) ([]kv.KV, error) {
	s.calls = append(s.calls, "scan "+string(start))
	return make([]kv.KV, limit), nil
}

func TestTracedClientIsAPurePassThrough(t *testing.T) {
	stub := &stubClient{}
	rec := newRecorder("test")
	cl := rec.wrap(func() kv.Client { return stub })()
	k := sim.NewKernel(1)
	k.Spawn("t", func(p *sim.Proc) {
		// Identity, not errors.Is: the runner compares with ==.
		if _, err := cl.Read(p, "a", nil); err != kv.ErrNotFound {
			t.Errorf("Read error %v", err)
		}
		if err := cl.Insert(p, "b", nil); err != kv.ErrTimeout {
			t.Errorf("Insert error %v", err)
		}
		if err := cl.Update(p, "c", nil); err != kv.ErrUnavailable {
			t.Errorf("Update error %v", err)
		}
		if err := cl.Delete(p, "d"); err != errStub {
			t.Errorf("Delete error %v", err)
		}
		if rows, err := cl.Scan(p, "e", 7, nil); err != nil || len(rows) != 7 {
			t.Errorf("Scan = %d rows, %v", len(rows), err)
		}
		if p.Now() != 0 {
			t.Errorf("decorator advanced the simulated clock to %v", p.Now())
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if got := strings.Join(stub.calls, ","); got != "read a,insert b,update c,delete d,scan e" {
		t.Errorf("inner client saw %q", got)
	}
	if rec.verbs[verbScan].rows != 7 || rec.verbs[verbRead].count != 1 {
		t.Errorf("recorder: scan rows %d, reads %d", rec.verbs[verbScan].rows, rec.verbs[verbRead].count)
	}
}

func TestCompareAppliesBoundsAndRefusesOtherInputs(t *testing.T) {
	spec, err := loadSpec()
	if err != nil {
		t.Fatal(err)
	}
	mk := func(scale map[string]float64, spread float64) resultFile {
		f := resultFile{Env: env{Seed: 1, Sizes: fullSizes()}, Workloads: map[string]workloadResult{}}
		for _, w := range spec.Workloads {
			r := workloadResult{Workload: w.Name, SimDigest: "d", Metrics: map[string]metricValue{}}
			for _, m := range spec.compared() {
				v := 100.0
				if s, ok := scale[m.Name]; ok {
					v *= s
				}
				vs := []float64{v * (1 - spread/2), v, v * (1 + spread/2)}
				r.Metrics[m.Name] = metricValue{Unit: m.Unit, Median: v, Values: vs}
			}
			f.Workloads[w.Name] = r
		}
		return f
	}
	dir := t.TempDir()
	write := func(name string, f resultFile) string {
		path := filepath.Join(dir, name)
		if err := f.write(path); err != nil {
			t.Fatal(err)
		}
		return path
	}
	base := write("base.json", mk(nil, 0.01))

	var out bytes.Buffer
	ok, err := compareFiles(&out, spec, base, write("same.json", mk(nil, 0.01)))
	if err != nil || !ok || strings.Contains(out.String(), "unresolved") {
		t.Fatalf("identical runs: ok=%v err=%v\n%s", ok, err, out.String())
	}

	// Direction matters: half the throughput (higher is better) is a
	// regression, half the bytes (lower is better) an improvement, and
	// double the throughput is not a regression either.
	out.Reset()
	ok, err = compareFiles(&out, spec, base, write("slow.json", mk(map[string]float64{"simops_per_s": 0.5}, 0.01)))
	if err != nil || ok || !strings.Contains(out.String(), "REGRESSION") {
		t.Fatalf("slower run: ok=%v err=%v\n%s", ok, err, out.String())
	}
	out.Reset()
	ok, err = compareFiles(&out, spec, base, write("lean.json", mk(map[string]float64{"bytes_per_simop": 0.5, "simops_per_s": 2}, 0.01)))
	if err != nil || !ok || strings.Count(out.String(), "improved") != 2*len(spec.Workloads) {
		t.Fatalf("better run: ok=%v err=%v\n%s", ok, err, out.String())
	}

	// A side whose own reps spread wider than the bound cannot show "ok".
	out.Reset()
	ok, err = compareFiles(&out, spec, base, write("noisy.json", mk(nil, 0.5)))
	if err != nil || !ok || !strings.Contains(out.String(), "unresolved") {
		t.Fatalf("noisy run: ok=%v err=%v\n%s", ok, err, out.String())
	}

	other := mk(nil, 0.01)
	other.Env.Seed = 7
	if _, err := compareFiles(&out, spec, base, write("seed7.json", other)); err == nil {
		t.Fatal("compared across seeds")
	}
	other = mk(nil, 0.01)
	other.Env.Sizes = testSizes()
	if _, err := compareFiles(&out, spec, base, write("small.json", other)); err == nil {
		t.Fatal("compared across per-rep sizes")
	}

	// Nothing to compare must not read as "ok": a missing workload, a
	// missing metric and a traced record are all refused.
	other = mk(nil, 0.01)
	delete(other.Workloads, "cass_scan")
	if _, err := compareFiles(&out, spec, base, write("short.json", other)); err == nil {
		t.Fatal("compared a file that lacks a workload")
	}
	other = mk(nil, 0.01)
	delete(other.Workloads["hbase_mixed"].Metrics, "peak_rss_mb")
	if _, err := compareFiles(&out, spec, write("nometric.json", other), base); err == nil {
		t.Fatal("compared a file that lacks a metric")
	}
	other = mk(nil, 0.01)
	r := other.Workloads["cass_mixed"]
	r.Traced = true
	other.Workloads["cass_mixed"] = r
	if _, err := compareFiles(&out, spec, base, write("traced.json", other)); err == nil {
		t.Fatal("compared a traced run")
	}
}
