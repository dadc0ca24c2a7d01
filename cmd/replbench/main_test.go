package main

import (
	"fmt"
	"strings"
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

func TestRunAuditSmoke(t *testing.T) {
	var b strings.Builder
	if err := run([]string{"-experiment", "audit", "-profile", "smoke"}, &b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{"Consistency audit", "stale-%", "hint-applies", "FA1", "FA2", "FA3", "FA4", "done in"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q", want)
		}
	}
	if strings.Contains(out, "✗") {
		t.Errorf("audit finding failed at smoke scale:\n%s", out)
	}
}

func TestRunAuditSmokeCSV(t *testing.T) {
	var b strings.Builder
	if err := run([]string{"-experiment", "audit", "-profile", "smoke", "-csv", "-seed", "7"}, &b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "db,workload,level,rf,fault,ops/sec") {
		t.Errorf("csv header missing:\n%s", b.String())
	}
}

func TestRunSpectrumSmoke(t *testing.T) {
	var b strings.Builder
	if err := run([]string{"-experiment", "spectrum", "-profile", "smoke"}, &b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	// One report carries all three backends side by side, plus the four
	// spectrum findings.
	for _, want := range []string{"Replication spectrum", "HBase", "Cassandra", "ObjStore",
		"async/read-one", "async/read-quorum", "repl-interval",
		"FS1", "FS2", "FS3", "FS4", "done in"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q", want)
		}
	}
	if strings.Contains(out, "✗") {
		t.Errorf("spectrum finding failed at smoke scale:\n%s", out)
	}
}

func TestRunRejectsBadFlags(t *testing.T) {
	var b strings.Builder
	if err := run([]string{"-experiment", "table1", "-profile", "bogus"}, &b); err == nil {
		t.Error("bad profile accepted")
	}
	if err := run([]string{"-experiment", "table1", "-rf", "1,x"}, &b); err == nil {
		t.Error("bad rf list accepted")
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
	// findings is not an experiment: every run already ends with its
	// findings.
	if err := run([]string{"-experiment", "findings"}, &b); err == nil || !strings.Contains(err.Error(), `unknown experiment "findings"`) {
		t.Errorf("-experiment findings: err = %v, want the unknown-experiment error", err)
	}
}

// TestRegistryMatchesCLI: core.Experiments() is the only list. The usage
// string and the unknown-name error are generated from it, every entry
// runs and reports at least one table, and `-experiment all` is exactly
// the entries' reports in registry order followed by their findings.
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
		findings = append(findings, rep.Findings(o)...)
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
