package core

import (
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"cloudbench/internal/objstore"
	"cloudbench/internal/ycsb"
)

// TestSpectrumCellsCanonicalOrder pins the grid enumeration the CSV and
// the bit-identity gates depend on, at the smoke profile, and that every
// cell is run once: no two cells share a label.
func TestSpectrumCellsCanonicalOrder(t *testing.T) {
	cells := spectrumCells(SmokeOptions())
	var labels []string
	seen := map[string]bool{}
	for _, c := range cells {
		l := c.String()
		if seen[l] {
			t.Errorf("cell %s enumerated twice", l)
		}
		seen[l] = true
		labels = append(labels, l)
	}
	var want strings.Builder
	for _, wl := range []string{"read-latest", "read-update"} {
		for _, b := range []string{
			"HBase/strong/rf1", "HBase/strong/rf3",
			"Cassandra/ONE/rf1", "Cassandra/ONE/rf3",
			"Cassandra/QUORUM/rf1", "Cassandra/QUORUM/rf3",
			"Cassandra/writeALL/rf1", "Cassandra/writeALL/rf3",
		} {
			fmt.Fprintf(&want, "%s/%s\n", b, wl)
		}
		fmt.Fprintf(&want, "ObjStore/async/read-quorum/rf3/%[1]s/200ms\nObjStore/async/read-one/rf1/%[1]s/200ms\n"+
			"ObjStore/async/read-one/rf3/%[1]s/200ms\nObjStore/async/read-one/rf3/%[1]s/2s\n", wl)
	}
	want.WriteString(`Cassandra/ONE/rf3/read-update/fault
ObjStore/async/read-one/rf3/read-update/200ms/fault
ObjStore/async/read-one/rf3/read-update/2s/fault`)
	if got := strings.Join(labels, "\n"); got != want.String() {
		t.Errorf("spectrum cells enumerate as\n%s\nwant\n%s", got, want.String())
	}
	// Only the cells that measure Cassandra's staleness reorder its
	// replica stage.
	for _, c := range cells {
		if (c.stageDelay > 0) != (c.db == "Cassandra") {
			t.Errorf("cell %s: stage jitter %v", c, c.stageDelay)
		}
	}
}

// smokeSpectrum runs the full grid at smoke scale once; the audit-half and
// whole-grid smoke tests both judge that one run.
var smokeSpectrum = sync.OnceValues(func() (SpectrumResults, error) {
	return RunSpectrum(SmokeOptions())
})

// TestConsistencyAuditSmoke checks the grid's synchronous half at smoke
// scale: every HBase and Cassandra cell served reads, Cassandra's fault
// cell ran, the table carries the staleness columns, and FA1–FA4 hold.
func TestConsistencyAuditSmoke(t *testing.T) {
	o := SmokeOptions()
	results, err := smokeSpectrum()
	if err != nil {
		t.Fatal(err)
	}
	if len(results.faults("Cassandra")) != 1 {
		t.Fatal("Cassandra fault cell missing")
	}
	cells := 0
	for _, m := range results {
		if m.DB == "ObjStore" {
			continue
		}
		cells++
		if m.Runtime <= 0 || m.Consistency.Reads == 0 {
			t.Errorf("empty cell %s/%s/%s/rf%d: tput=%.0f reads=%d",
				m.DB, m.Workload, m.Level, m.RF, m.Runtime, m.Consistency.Reads)
		}
	}
	// 2 workloads × (HBase + three Cassandra levels) × RF, plus the fault cell.
	if want := 2*4*len(o.ReplicationFactors) + 1; cells != want {
		t.Errorf("synchronous cells = %d, want %d", cells, want)
	}
	out := results.Tables()[0].String()
	for _, want := range []string{"stale-%", "tvis-q-p50", "mono-viol", "hint-applies", "HBase", "writeALL"} {
		if !strings.Contains(out, want) {
			t.Errorf("table missing %q", want)
		}
	}
	fs := results.syncFindings()
	if len(fs) != 4 {
		t.Fatalf("synchronous findings = %d, want FA1–FA4", len(fs))
	}
	for i, f := range fs {
		if want := fmt.Sprintf("FA%d", i+1); f.ID != want {
			t.Errorf("finding %d is %s, want %s", i, f.ID, want)
		}
		t.Log(f)
		if !f.Pass {
			t.Errorf("finding failed: %s", f)
		}
	}
}

// TestSpectrumSmoke runs the full grid at smoke scale and checks the
// qualitative findings hold end to end.
func TestSpectrumSmoke(t *testing.T) {
	o := SmokeOptions()
	results, err := smokeSpectrum()
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != len(spectrumCells(o)) {
		t.Fatalf("results = %d, want %d", len(results), len(spectrumCells(o)))
	}
	if len(results.faults("ObjStore")) != len(o.SpectrumReplIntervals) {
		t.Fatal("object-store fault cells missing")
	}
	// Every cell actually served traffic and measured reads.
	for _, m := range results {
		if m.Runtime <= 0 || m.Consistency.Reads == 0 {
			t.Errorf("cell %s/%s/%s rf%d: throughput=%.0f reads=%d — did not run",
				m.DB, m.Workload, m.Level, m.RF, m.Runtime, m.Consistency.Reads)
		}
		if m.DB == "ObjStore" && m.Consistency.WritesAcked == 0 {
			t.Errorf("objstore cell %s/%s rf%d: no writes observed", m.Workload, m.Level, m.RF)
		}
	}
	out := results.Tables()[0].String()
	for _, want := range []string{"Replication spectrum", "repl-interval", "stale-%", "tvis-q-p50", "mono-viol",
		"hint-applies", "async-regress", "HBase", "Cassandra", "ObjStore", "writeALL", "async/read-one", "async/read-quorum"} {
		if !strings.Contains(out, want) {
			t.Errorf("table missing %q", want)
		}
	}
	if testing.Verbose() {
		t.Log("\n" + out)
	}
	findings := results.Findings()
	checkFindingsBlock(t, "spectrum", "Smoke profile (`SmokeOptions`)", o, findings)
	for _, f := range findings {
		t.Log(f.String())
		if !f.Pass {
			t.Errorf("finding %s failed: %s", f.ID, f.Detail)
		}
	}
}

// TestSpectrumObjstoreAsyncAccounting: the oracle attached to an
// object-store cell runs under AckAsync semantics, so backwards reads
// explained by in-flight replication surface as async regressions, never
// monotonicity violations.
func TestSpectrumObjstoreAsyncAccounting(t *testing.T) {
	o := SmokeOptions()
	rows, err := runSpectrumCell(o, spectrumCell{
		backend: objstoreAt(3, 500*time.Millisecond, objstore.ReadOne), spec: ycsb.ReadLatest(o.StressRecords),
	})
	if err != nil {
		t.Fatal(err)
	}
	res := rows[0]
	if res.Consistency.MonotonicViolations != 0 {
		t.Errorf("monotonic violations = %d under AckAsync, want 0 (async regressions = %d)",
			res.Consistency.MonotonicViolations, res.Consistency.AsyncRegressions)
	}
}
