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

// capture runs the CLI on the given registry and returns its report with
// the trailing wall-clock "done in ..." line stripped — the only line
// allowed to differ between runs.
func capture(t *testing.T, experiments func(core.CLI) []core.Experiment, args ...string) string {
	t.Helper()
	var buf bytes.Buffer
	if err := run(args, &buf, experiments); err != nil {
		t.Fatalf("replbench %v: %v", args, err)
	}
	out := buf.String()
	i := strings.LastIndex(out, "done in ")
	if i < 0 {
		t.Fatalf("replbench %v: missing trailer in output:\n%s", args, out)
	}
	return out[:i]
}

// smokeArgs are a golden's flags, the seed-42 smoke report in CSV on 8
// workers (TestSweepBitIdentical proves the count moves nothing), plus extra.
func smokeArgs(experiment string, extra ...string) []string {
	return append([]string{"-experiment", experiment, "-profile", "smoke", "-csv", "-seed", "42", "-parallel", "8"}, extra...)
}

// memoRun is one simulated run of a registry entry.
type memoRun struct {
	name string
	cli  core.CLI
	o    core.Options
	rep  core.Report
	err  error
}

// memo is every run memoized has simulated. Tests touch it only from
// their sequential part: run calls an entry on the calling goroutine, and
// TestSweepBitIdentical's subtests read their memoized report before they
// call t.Parallel.
var memo []memoRun

// memoized is core.Experiments with each entry's Run simulated once per
// (name, CLI, Options) in this test binary. A gate that passes it to run
// still parses, dispatches, renders and aggregates for real; only the
// simulation is shared. Options compare with reflect.DeepEqual because
// cluster.Config.Geo is a pointer.
func memoized(cli core.CLI) []core.Experiment {
	exps := core.Experiments(cli)
	for i, e := range exps {
		exps[i].Run = func(o core.Options) (core.Report, error) {
			for _, m := range memo {
				if m.name == e.Name && m.cli == cli && reflect.DeepEqual(m.o, o) {
					return m.rep, m.err
				}
			}
			rep, err := e.Run(o)
			memo = append(memo, memoRun{e.Name, cli, o, rep, err})
			return rep, err
		}
	}
	return exps
}

// TestSweepBitIdentical is the determinism regression test: each swept
// experiment's memoized smoke report, run on 8 workers, must equal a fresh
// -parallel 1 run byte for byte. This is the invariant the detwalk and
// seedflow analyzers protect: any wall-clock read, global rand call, or
// map-order leak in a sim-reachable package shows up here as a diff. The
// table covers the micro grid, the consistency grid, the per-phase
// decomposition and the multi-DC grid (WAN-link jitter streams, per-DC
// quorum fan-out, the partition cells, the adaptive controller), and
// Fig. 3, the one sweep whose cells depend on others': its QUORUM and
// writeALL cells take their targets from the ONE cells' probes. Each
// serial rerun keeps one core busy, so the reruns run side by side, the
// longest, Fig. 3's, first.
func TestSweepBitIdentical(t *testing.T) {
	for _, experiment := range []string{"fig3", "fig1", "spectrum", "tracebreak", "geo"} {
		t.Run(experiment, func(t *testing.T) {
			wide := capture(t, memoized, smokeArgs(experiment)...)
			t.Parallel()
			serial := capture(t, core.Experiments, smokeArgs(experiment, "-parallel", "1")...)
			if serial != wide {
				t.Errorf("-parallel 1 and -parallel 8 give different reports:\n%s", firstDiff(serial, wide))
			}
		})
	}
}

// TestTraceBitIdentical extends the invariant to the raw span stream of the
// tracing subsystem: IDs included, it must be identical across same-seed
// runs.
func TestTraceBitIdentical(t *testing.T) {
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
	out := capture(t, memoized, smokeArgs("megascale", "-shards", "4")...)
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

// goldenNames are the reports smoke_seed42.sha256 pins: one per experiment,
// megascale at two -shards values.
var goldenNames = []string{"fig1", "fig2", "fig3", "spectrum", "tracebreak", "geo",
	"megascale-shards2", "megascale-shards4", "table1", "ablation-a3", "failover"}

// TestSmokeGoldenDigests is the cross-commit identity gate. Every other
// test in this file compares a run against another run of the same
// checkout; this one compares the seed-42 smoke report of each experiment
// family against the sha256 recorded when the figures were last moved on
// purpose, so a refactor that shifts a number anywhere fails here. It reads
// the memoized runs the other gates share. Regenerate with -update, and
// only in a change that declares the re-baseline.
func TestSmokeGoldenDigests(t *testing.T) {
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
	for _, name := range goldenNames {
		experiment, shards, ok := strings.Cut(name, "-shards")
		args := smokeArgs(experiment)
		if ok {
			args = smokeArgs(experiment, "-shards", shards)
		}
		got := fmt.Sprintf("%x", sha256.Sum256([]byte(capture(t, memoized, args...))))
		if *update {
			want[name] = got
		} else if got != want[name] {
			t.Errorf("%s: report sha256 %s, golden %s — the seed-42 smoke figures moved", name, got, want[name])
		}
	}
	if *update {
		var b strings.Builder
		b.WriteString(lines[0] + "\n")
		for _, name := range goldenNames {
			fmt.Fprintf(&b, "%s  %s\n", want[name], name)
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
