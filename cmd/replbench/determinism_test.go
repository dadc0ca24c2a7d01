package main

import (
	"bytes"
	"crypto/sha256"
	"flag"
	"fmt"
	"os"
	"reflect"
	"strings"
	"testing"

	"cloudbench/internal/core"
)

// capture runs the CLI and returns its report with the trailing
// wall-clock "done in ..." line stripped — the only line allowed to
// differ between runs.
func capture(t *testing.T, args ...string) string {
	t.Helper()
	var buf bytes.Buffer
	if err := run(args, &buf); err != nil {
		t.Fatalf("replbench %v: %v", args, err)
	}
	out := buf.String()
	i := strings.LastIndex(out, "done in ")
	if i < 0 {
		t.Fatalf("replbench %v: missing trailer in output:\n%s", args, out)
	}
	return out[:i]
}

// smokeReports holds the seed-42 smoke reports the gates below have already
// captured, keyed by golden name, so TestSmokeGoldenDigests hashes those
// instead of running each sweep once more.
var smokeReports = map[string]string{}

// TestSweepBitIdentical is the determinism regression test: a same-seed
// sweep must produce byte-identical CSV whatever the worker-pool size.
// This is the invariant the detwalk and seedflow analyzers exist to
// protect — any wall-clock read, global rand call, or map-order leak in
// a sim-reachable package eventually shows up here as a diff.
func TestSweepBitIdentical(t *testing.T) {
	for _, experiment := range []string{"fig1", "spectrum"} {
		t.Run(experiment, func(t *testing.T) {
			base := []string{"-experiment", experiment, "-profile", "smoke", "-csv", "-seed", "42"}
			serial := capture(t, append(base, "-parallel", "1")...)
			smokeReports[experiment] = serial
			wide := capture(t, append(base, "-parallel", "8")...)
			if serial != wide {
				t.Errorf("-parallel 1 and -parallel 8 reports differ:\n%s", firstDiff(serial, wide))
			}
			repeat := capture(t, append(base, "-parallel", "8")...)
			if wide != repeat {
				t.Errorf("two -parallel 8 runs with the same seed differ:\n%s", firstDiff(wide, repeat))
			}
		})
	}
}

// TestGeoSweepBitIdentical extends the determinism gate to the geo
// subsystem: the multi-DC grid — WAN-link jitter streams, per-DC quorum
// fan-out, the DC-partition fault cells, and the adaptive controller's
// probability-driven decisions — must produce byte-identical CSV across
// worker-pool sizes.
func TestGeoSweepBitIdentical(t *testing.T) {
	base := []string{"-experiment", "geo", "-profile", "smoke", "-csv", "-seed", "42"}
	serial := capture(t, append(base, "-parallel", "1")...)
	smokeReports["geo"] = serial
	wide := capture(t, append(base, "-parallel", "8")...)
	if serial != wide {
		t.Errorf("-parallel 1 and -parallel 8 geo reports differ:\n%s", firstDiff(serial, wide))
	}
}

// TestTraceBitIdentical extends the invariant to the tracing subsystem:
// the per-phase decomposition must be byte-identical across worker-pool
// sizes, and the raw span stream, IDs included, must be identical across
// same-seed runs.
func TestTraceBitIdentical(t *testing.T) {
	base := []string{"-experiment", "tracebreak", "-profile", "smoke", "-csv", "-seed", "42", "-rf", "1,3"}
	serial := capture(t, append(base, "-parallel", "1")...)
	smokeReports["tracebreak"] = serial
	wide := capture(t, append(base, "-parallel", "8")...)
	if serial != wide {
		t.Errorf("-parallel 1 and -parallel 8 tracebreak reports differ:\n%s", firstDiff(serial, wide))
	}

	o := core.SmokeOptions()
	o.Seed = 42
	o.ReplicationFactors = []int{3}
	_, a, err := core.RunTraceSpans(o, 50_000)
	if err != nil {
		t.Fatal(err)
	}
	_, b, err := core.RunTraceSpans(o, 50_000)
	if err != nil {
		t.Fatal(err)
	}
	if len(a) == 0 {
		t.Fatal("span-retaining cell kept no spans")
	}
	if !reflect.DeepEqual(a, b) {
		for i := range a {
			if i < len(b) && a[i] != b[i] {
				t.Fatalf("span %d differs:\n  a: %+v\n  b: %+v", i, a[i], b[i])
			}
		}
		t.Fatalf("span streams differ in length: %d vs %d", len(a), len(b))
	}
}

// TestMegaScaleWorkersBitIdentical is the window-engine gate at the CLI:
// megascale is the one experiment whose model spans shards, so it is the
// one whose report passes through multi-shard windows, the barrier merge
// and the message lane. On 4 shards the report must be byte-identical
// whether those windows run in line on one worker (the sequential
// reference) or on four pinned workers.
func TestMegaScaleWorkersBitIdentical(t *testing.T) {
	out := capture(t, "-experiment", "megascale", "-short", "-csv", "-seed", "42", "-shards", "4")
	smokeReports["megascale-shards4"] = out
	if !strings.Contains(out, "megascale: 4 shards, ") || strings.Contains(out, " 0 conservative windows") {
		t.Fatalf("megascale did not run multi-shard windows:\n%s", out)
	}
	report := func(workers int) string {
		mo := core.MegaSmokeOptions()
		mo.Seed, mo.Shards, mo.Workers = 42, 4, workers
		res, err := core.RunMegaScale(mo)
		if err != nil {
			t.Fatal(err)
		}
		return res.Table().String()
	}
	if inline, pinned := report(1), report(4); inline != pinned {
		t.Errorf("1 and 4 pinned workers give different megascale reports:\n%s", firstDiff(inline, pinned))
	}
}

var update = flag.Bool("update", false, "rewrite "+goldenDigests+" from this checkout's reports")

const goldenDigests = "testdata/smoke_seed42.sha256"

// TestSmokeGoldenDigests is the cross-commit identity gate. Every other
// test in this file compares a run against another run of the same
// checkout; this one compares the seed-42 smoke report of each experiment
// family against the sha256 recorded when the figures were last moved on
// purpose, so a refactor that shifts a number anywhere fails here. fig2,
// fig3 and failover run only outside -short; no other gate captures them, so
// this test runs them itself. Regenerate with -update, and only in a change
// that declares the re-baseline.
func TestSmokeGoldenDigests(t *testing.T) {
	reports := []struct {
		name  string // golden name: the experiment, plus a -suffix where flags vary
		extra []string
		long  bool
	}{
		{name: "fig1"},
		{name: "fig2", long: true},
		{name: "fig3", long: true},
		{name: "spectrum"},
		{name: "tracebreak", extra: []string{"-rf", "1,3"}}, // smoke's own RF set; unset, tracebreak sweeps 1-6
		{name: "geo"},
		{name: "megascale-shards2", extra: []string{"-shards", "2"}},
		{name: "megascale-shards4", extra: []string{"-shards", "4"}},
		{name: "table1"},
		{name: "ablation-a1"},
		{name: "ablation-a2"},
		{name: "ablation-a3"},
		{name: "failover", long: true}, // four 40-s-of-sim-time timelines: as slow as fig3
	}
	raw, err := os.ReadFile(goldenDigests)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimRight(string(raw), "\n"), "\n")
	want := map[string]string{}
	for _, line := range lines[1:] { // line 0 is the provenance comment
		sum, name, ok := strings.Cut(line, "  ")
		if !ok {
			t.Fatalf("%s: malformed line %q", goldenDigests, line)
		}
		want[name] = sum
	}
	for _, r := range reports {
		if r.long && testing.Short() && !*update {
			continue
		}
		out, ok := smokeReports[r.name]
		if !ok {
			experiment, _, _ := strings.Cut(r.name, "-shards")
			args := []string{"-experiment", experiment, "-profile", "smoke", "-csv", "-seed", "42"}
			out = capture(t, append(args, r.extra...)...)
		}
		got := fmt.Sprintf("%x", sha256.Sum256([]byte(out)))
		if *update {
			want[r.name] = got
		} else if got != want[r.name] {
			t.Errorf("%s: report sha256 %s, golden %s — the seed-42 smoke figures moved", r.name, got, want[r.name])
		}
	}
	if *update {
		var b strings.Builder
		b.WriteString(lines[0] + "\n")
		for _, r := range reports {
			fmt.Fprintf(&b, "%s  %s\n", want[r.name], r.name)
		}
		if err := os.WriteFile(goldenDigests, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// firstDiff renders the first differing line of two reports.
func firstDiff(a, b string) string {
	al, bl := strings.Split(a, "\n"), strings.Split(b, "\n")
	for i := 0; i < len(al) && i < len(bl); i++ {
		if al[i] != bl[i] {
			return fmt.Sprintf("line %d:\n  a: %s\n  b: %s", i+1, al[i], bl[i])
		}
	}
	return fmt.Sprintf("lengths differ: %d vs %d lines", len(al), len(bl))
}
