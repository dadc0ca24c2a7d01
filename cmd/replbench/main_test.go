package main

import (
	"fmt"
	"os"
	"strings"
	"sync"
	"testing"

	"cloudbench/internal/core"
)

func TestRunTable1(t *testing.T) {
	var b strings.Builder
	if err := run([]string{"-experiment", "table1"}, &b); err != nil {
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
	if err := run([]string{"-experiment", "table1", "-csv"}, &b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "workload,typical-usage") {
		t.Errorf("csv header missing:\n%s", b.String())
	}
}

// smokeSpectrumRun runs the spectrum at smoke scale once; the audit-half
// and whole-report smoke tests both read that one output.
var smokeSpectrumRun = sync.OnceValues(func() (string, error) {
	var b strings.Builder
	err := run([]string{"-experiment", "spectrum", "-profile", "smoke"}, &b)
	return b.String(), err
})

// TestRunAuditSmoke checks the report's synchronous half: the staleness
// columns and FA1–FA4, all passing.
func TestRunAuditSmoke(t *testing.T) {
	out, err := smokeSpectrumRun()
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"stale-%", "hint-applies", "FA1", "FA2", "FA3", "FA4", "done in"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q", want)
		}
	}
	if strings.Contains(out, "✗ FA") {
		t.Errorf("audit finding failed at smoke scale:\n%s", out)
	}
}

func TestRunSpectrumSmoke(t *testing.T) {
	out, err := smokeSpectrumRun()
	if err != nil {
		t.Fatal(err)
	}
	// One report carries all three backends side by side, plus the four
	// findings on each half of the grid.
	for _, want := range []string{"Replication spectrum", "HBase", "Cassandra", "ObjStore",
		"async/read-one", "async/read-quorum", "repl-interval", "stale-%", "hint-applies",
		"FA1", "FA2", "FA3", "FA4", "FS1", "FS2", "FS3", "FS4", "done in"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q", want)
		}
	}
	if strings.Contains(out, "✗") {
		t.Errorf("spectrum finding failed at smoke scale:\n%s", out)
	}
}

func TestRunSpectrumSmokeCSV(t *testing.T) {
	var b strings.Builder
	if err := run([]string{"-experiment", "spectrum", "-profile", "smoke", "-csv", "-seed", "7"}, &b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "db,workload,level,rf,repl-interval,fault,ops/sec") {
		t.Errorf("csv header missing:\n%s", b.String())
	}
}

func TestRunRejectsBadFlags(t *testing.T) {
	var b strings.Builder
	if err := run([]string{"-experiment", "table1", "-profile", "bogus"}, &b); err == nil {
		t.Error("bad profile accepted")
	}
	// A list out of ascending order would turn every finding that walks
	// rows in RF order red on good data.
	for _, rfs := range []string{"1,x", "3,1", "3,3"} {
		if err := run([]string{"-experiment", "table1", "-rf", rfs}, &b); err == nil || !strings.Contains(err.Error(), "bad -rf") {
			t.Errorf("-rf %s: err = %v, want the bad -rf error", rfs, err)
		}
	}
	for _, flag := range []string{"-shards", "-parallel"} {
		if err := run([]string{"-experiment", "table1", flag, "-1"}, &b); err == nil {
			t.Errorf("%s -1 accepted", flag)
		}
	}
}

func TestRunRejectsUnknownExperiment(t *testing.T) {
	var b strings.Builder
	err := run([]string{"-experiment", "bogus"}, &b)
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
		if err := run([]string{"-experiment", name}, &b); err == nil || !strings.Contains(err.Error(), `unknown experiment "`+name+`"`) {
			t.Errorf("-experiment %s: err = %v, want the unknown-experiment error", name, err)
		}
	}
}

// TestRegistryMatchesCLI: core.Experiments() is the only list. The usage
// string and the unknown-name error are generated from it, every entry
// runs and reports at least one table, every entry but table1 (checked by
// core.VerifyTable1) and megascale asserts at least one finding, and
// `-experiment all` is exactly the entries' reports in registry order
// followed by their findings.
func TestRegistryMatchesCLI(t *testing.T) {
	cli := core.CLI{Profile: "smoke", RFSet: true}
	var names []string
	for _, e := range core.Experiments(cli) {
		names = append(names, e.Name)
	}
	valid := strings.Join(append(names, "all"), "|")
	if got := experimentNames(); got != valid {
		t.Errorf("usage string = %q, want the registry %q", got, valid)
	}
	var sink strings.Builder
	err := run([]string{"-experiment", "bogus"}, &sink)
	if want := `unknown experiment "bogus" (valid: ` + valid + ")"; err == nil || err.Error() != want {
		t.Errorf("unknown-name error = %v, want %q", err, want)
	}

	o := core.SmokeOptions()
	o.Seed = 42
	o.ReplicationFactors = []int{3}
	if testing.Short() {
		// Plumbing only: the per-cell cost is what -short cannot afford.
		o.StressRecords, o.StressOps = 300, 600
		o.MicroRecords, o.MicroOps = 500, 500
	}
	var want strings.Builder
	var findings []core.Finding
	for _, e := range core.Experiments(cli) {
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
	if testing.Short() {
		return
	}
	want.WriteString("Findings versus the paper's qualitative claims:\n")
	for _, f := range findings {
		fmt.Fprintln(&want, " ", f)
	}
	want.WriteString("\n")
	got := capture(t, "-experiment", "all", "-profile", "smoke", "-rf", "3", "-csv", "-seed", "42")
	if got != want.String() {
		t.Errorf("-experiment all is not the registry in order:\n%s", firstDiff(got, want.String()))
	}
}

func TestRunWritesOutputFile(t *testing.T) {
	dir := t.TempDir()
	var b strings.Builder
	if err := run([]string{"-experiment", "table1", "-o", dir + "/r.txt"}, &b); err != nil {
		t.Fatal(err)
	}
}

// TestProfilesLeaveReportUnchanged: -cpuprofile and -memprofile write
// non-empty profiles and change nothing above the wall-clock line.
func TestProfilesLeaveReportUnchanged(t *testing.T) {
	dir := t.TempDir()
	base := []string{"-experiment", "ablation-a3", "-profile", "smoke", "-seed", "42"}
	plain := capture(t, base...)
	profiled := capture(t, append(base, "-cpuprofile", dir+"/cpu.pprof", "-memprofile", dir+"/mem.pprof")...)
	if plain != profiled {
		t.Errorf("profiling changed the report:\n%s", firstDiff(plain, profiled))
	}
	for _, name := range []string{"cpu.pprof", "mem.pprof"} {
		if fi, err := os.Stat(dir + "/" + name); err != nil || fi.Size() == 0 {
			t.Errorf("%s: %v, want a non-empty profile", name, err)
		}
	}
}
