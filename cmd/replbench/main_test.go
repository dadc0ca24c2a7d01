package main

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"cloudbench/internal/core"
)

func TestRunTable1(t *testing.T) {
	var b strings.Builder
	if err := run([]string{"-experiment", "table1"}, &b, core.Experiments); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{"Table 1", "read-mostly", "Online shopping", "zipfian", "done in"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

func TestRunTable1CSV(t *testing.T) {
	var b strings.Builder
	if err := run([]string{"-experiment", "table1", "-csv"}, &b, core.Experiments); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "workload,typical-usage") {
		t.Errorf("csv header missing:\n%s", b.String())
	}
}

func TestRunSpectrumSmokeCSV(t *testing.T) {
	if out := capture(t, memoized, smokeArgs("spectrum")...); !strings.Contains(out, "db,workload,level,rf,repl-interval,fault,ops/sec") {
		t.Errorf("csv header missing:\n%s", out)
	}
}

func TestRunRejectsBadFlags(t *testing.T) {
	var b strings.Builder
	if err := run([]string{"-experiment", "table1", "-profile", "bogus"}, &b, core.Experiments); err == nil {
		t.Error("bad profile accepted")
	}
	// A list out of ascending order would turn every finding that walks
	// rows in RF order red on good data, and a factor above the 15-server
	// testbed would measure RF 15 under its own label.
	for _, rfs := range []string{"1,x", "3,1", "3,3", "1,16"} {
		if err := run([]string{"-experiment", "table1", "-rf", rfs}, &b, core.Experiments); err == nil || !strings.Contains(err.Error(), "bad -rf") {
			t.Errorf("-rf %s: err = %v, want the bad -rf error", rfs, err)
		}
	}
	for _, flag := range []string{"-shards", "-parallel"} {
		if err := run([]string{"-experiment", "table1", flag, "-1"}, &b, core.Experiments); err == nil {
			t.Errorf("%s -1 accepted", flag)
		}
	}
}

func TestRunRejectsUnknownExperiment(t *testing.T) {
	var b strings.Builder
	err := run([]string{"-experiment", "bogus"}, &b, core.Experiments)
	if err == nil {
		t.Fatal("unknown experiment accepted")
	}
	// The error lists the registry so the valid names never drift from the
	// dispatch.
	for _, want := range []string{"bogus", "table1", "spectrum", "all"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("unknown-experiment error missing %q: %v", want, err)
		}
	}
	// Neither findings nor sla nor audit nor A1/A2 is an experiment: every
	// run already ends with its findings, geo's FG3 judges the SLA proposal
	// of §6, the staleness grid is the spectrum's synchronous half, and the
	// read repair and replication counterfactuals are Fig. 1's twin cells.
	for _, name := range []string{"findings", "sla", "audit", "ablation-a1", "ablation-a2"} {
		if err := run([]string{"-experiment", name}, &b, core.Experiments); err == nil || !strings.Contains(err.Error(), `unknown experiment "`+name+`"`) {
			t.Errorf("-experiment %s: err = %v, want the unknown-experiment error", name, err)
		}
	}
}

// TestRegistryMatchesCLI: core.Experiments() is the only list. The usage
// string and the unknown-name error are generated from it, every entry
// runs and reports at least one table, every entry but table1 (checked by
// core.VerifyTable1) and megascale asserts at least one finding, and
// `-experiment all` is exactly the entries' reports in registry order
// followed by their findings. It judges the goldens' seed-42 smoke runs.
func TestRegistryMatchesCLI(t *testing.T) {
	cli := core.CLI{Profile: "smoke"}
	var names []string
	for _, e := range core.Experiments(cli) {
		names = append(names, e.Name)
	}
	valid := strings.Join(append(names, "all"), "|")
	if got := experimentNames(core.Experiments); got != valid {
		t.Errorf("usage string = %q, want the registry %q", got, valid)
	}
	var sink strings.Builder
	err := run([]string{"-experiment", "bogus"}, &sink, core.Experiments)
	if want := `unknown experiment "bogus" (valid: ` + valid + ")"; err == nil || err.Error() != want {
		t.Errorf("unknown-name error = %v, want %q", err, want)
	}

	o := core.SmokeOptions()
	o.Seed, o.Parallelism = 42, 8
	var want strings.Builder
	var findings []core.Finding
	for _, e := range memoized(cli) {
		rep, err := e.Run(o)
		if err != nil {
			t.Fatalf("%s: %v", e.Name, err)
		}
		tables := rep.Tables()
		if len(tables) == 0 {
			t.Errorf("%s: no tables", e.Name)
		}
		for _, tb := range tables {
			tb.Write(&want, true)
		}
		fs := rep.Findings()
		if len(fs) == 0 && e.Name != "table1" && e.Name != "megascale" {
			t.Errorf("%s: asserts no finding", e.Name)
		}
		findings = append(findings, fs...)
	}
	want.WriteString("Findings versus the paper's qualitative claims:\n")
	for _, f := range findings {
		fmt.Fprintln(&want, " ", f)
	}
	want.WriteString("\n")
	got := capture(t, memoized, smokeArgs("all")...)
	if got != want.String() {
		t.Errorf("-experiment all is not the registry in order:\n%s", firstDiff(got, want.String()))
	}
}

// TestRunWritesOutputFile: -o writes the report to the file as well as to
// stdout.
func TestRunWritesOutputFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "r.txt")
	var b strings.Builder
	if err := run([]string{"-experiment", "table1", "-o", path}, &b, core.Experiments); err != nil {
		t.Fatal(err)
	}
	if file, err := os.ReadFile(path); err != nil || string(file) != b.String() {
		t.Errorf("-o file = %q, %v; want stdout's report %q", file, err, b.String())
	}
}

// TestRunFailsIfReportIsNotWritten: a report that could not be written,
// to -o's file or to stdout, fails the run.
func TestRunFailsIfReportIsNotWritten(t *testing.T) {
	var b strings.Builder
	if err := run([]string{"-experiment", "table1", "-o", "/dev/full"}, &b, core.Experiments); err == nil {
		t.Error("-o /dev/full: run returned nil")
	}
	if err := run([]string{"-experiment", "table1"}, failingWriter{}, core.Experiments); err == nil {
		t.Error("failing stdout: run returned nil")
	}
}

type failingWriter struct{}

func (failingWriter) Write([]byte) (int, error) { return 0, errors.New("no space left on device") }

// TestProfilesLeaveReportUnchanged: -cpuprofile and -memprofile write
// non-empty profiles and change nothing above the wall-clock line. The
// profiled run is a fresh one, so the profiles record a simulation.
func TestProfilesLeaveReportUnchanged(t *testing.T) {
	dir := t.TempDir()
	plain := capture(t, memoized, smokeArgs("ablation-a3")...)
	profiled := capture(t, core.Experiments, smokeArgs("ablation-a3", "-cpuprofile", dir+"/cpu.pprof", "-memprofile", dir+"/mem.pprof")...)
	if plain != profiled {
		t.Errorf("profiling changed the report:\n%s", firstDiff(plain, profiled))
	}
	for _, name := range []string{"cpu.pprof", "mem.pprof"} {
		if fi, err := os.Stat(dir + "/" + name); err != nil || fi.Size() == 0 {
			t.Errorf("%s: %v, want a non-empty profile", name, err)
		}
	}
}
