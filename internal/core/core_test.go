package core

import (
	"fmt"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"cloudbench/internal/kv"
	"cloudbench/internal/sim"
	"cloudbench/internal/ycsb"
)

// reducedOptions shrinks the sweep for test budgets while keeping every
// mechanism (GC pauses, read repair, compaction) in play.
func reducedOptions() Options {
	o := QuickOptions()
	o.ReplicationFactors = []int{1, 6}
	o.MicroRecords = 12_000
	o.MicroOps = 14_000
	o.StressRecords = 6_000
	o.StressOps = 20_000
	o.Fig3TargetFractions = []float64{1.0}
	return o
}

func TestVerifyTable1(t *testing.T) {
	if err := VerifyTable1(); err != nil {
		t.Fatal(err)
	}
	out := Table1().String()
	for _, want := range []string{"read-mostly", "Feeds reading", "95/5", "zipfian", "latest"} {
		if !strings.Contains(out, want) {
			t.Errorf("table missing %q:\n%s", want, out)
		}
	}
}

func TestDeployHBaseServesTraffic(t *testing.T) {
	o := reducedOptions()
	spec := ycsb.ReadMostly(100)
	d := deploy(o, hbaseAt(3), spec)
	err := d.run(4, func(p *sim.Proc) {
		cl := d.newClient()
		if err := cl.Insert(p, spec.KeyFor(1), kv.Record{"f": kv.SizedValue(10)}); err != nil {
			t.Error(err)
		}
		if _, err := cl.Read(p, spec.KeyFor(1), nil); err != nil {
			t.Error(err)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if d.hb == nil || d.ca != nil {
		t.Fatal("wrong backend")
	}
}

func TestDeployCassandraServesTraffic(t *testing.T) {
	o := reducedOptions()
	spec := ycsb.ReadMostly(100)
	d := deploy(o, cassandraAt(3, levels()[1]), spec)
	err := d.run(4, func(p *sim.Proc) {
		cl := d.newClient()
		if err := cl.Insert(p, spec.KeyFor(1), kv.Record{"f": kv.SizedValue(10)}); err != nil {
			t.Error(err)
		}
		if _, err := cl.Read(p, spec.KeyFor(1), nil); err != nil {
			t.Error(err)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if d.ca == nil || d.hb != nil {
		t.Fatal("wrong backend")
	}
}

func TestGCStopsWithDriver(t *testing.T) {
	// run must stop GC pause processes when the driver finishes or the
	// kernel never drains; a clean return proves it.
	o := reducedOptions()
	d := deploy(o, cassandraAt(1, levels()[0]), ycsb.ReadMostly(100))
	done := false
	if err := d.run(4, func(p *sim.Proc) {
		p.Sleep(3 * time.Second) // several GC cycles
		done = true
	}); err != nil {
		t.Fatal(err)
	}
	if !done || d.gc == nil || d.gc.Pauses == 0 {
		t.Fatalf("gc pauses=%v done=%v", d.gc, done)
	}
}

// reducedFig1 and smokeFig1 each run Fig. 1 once; the paper-claims and
// counterfactual tests all judge those runs. reducedF4Seeds adds the cells
// F4 reads, Cassandra's paper cells, at seeds 2–8 (f4Seeds).
var (
	reducedFig1    = sync.OnceValues(func() (Fig1Results, error) { return RunFig1(reducedOptions()) })
	smokeFig1      = sync.OnceValues(func() (Fig1Results, error) { return RunFig1(SmokeOptions()) })
	reducedF4Seeds = sync.OnceValues(func() (Fig1Results, error) {
		o := reducedOptions()
		var cells []seededCell
		for seed := o.Seed + 1; seed <= f4Seeds; seed++ {
			for _, b := range dbRFCells(o) {
				if b.db == "Cassandra" {
					cells = append(cells, seededCell{seed, b})
				}
			}
		}
		return sweep(o, "fig1", cells, func(o Options, c seededCell) (Fig1Results, error) {
			o.Seed = c.seed
			return runFig1Cell(o, c.b)
		})
	})
)

// f4Seeds is the last seed F4 is judged at. The first is reducedOptions'
// seed, 1.
const f4Seeds = 8

// seededCell is one Fig. 1 cell at its own seed.
type seededCell struct {
	seed int64
	b    backend
}

func (c seededCell) String() string { return fmt.Sprintf("seed%d/%v", c.seed, c.b) }

func TestFig1ReproducesMicroFindings(t *testing.T) {
	t.Parallel()
	if testing.Short() {
		// Plumbing only: the smoke run the counterfactual tests judge.
		if res, err := smokeFig1(); err != nil || len(res) != (2*2+2)*4 || len(res.Figures()) != 4 {
			t.Fatalf("smoke run malformed: %d rows, err %v", len(res), err)
		}
		return
	}
	o := reducedOptions()
	res, err := reducedFig1()
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != (2*2+2)*4 { // (2 DBs × 2 RFs, a twin per DB at the top RF) × 4 ops
		t.Fatalf("results = %d", len(res))
	}
	f4Rows, err := reducedF4Seeds()
	if err != nil {
		t.Fatal(err)
	}
	everySeed := slices.Concat(res, f4Rows)
	findings := everySeed.Findings()
	checkFindingsBlock(t, "fig1", "Reduced profile (`reducedOptions`)", o, findings)
	allPass(t, findings[:3]) // F1–F3; F4′ and F2′ are TestAblationReadRepair's and TestAblationHBaseSyncRepl's
	// F4's scan half is the recorded deviation (EXPERIMENTS.md, "Known
	// deviations"): over seeds 1–8 mean scan latency rises, its interval
	// above 1, but its geometric mean need not clear F4's margin. Read must
	// clear all of F4's bar.
	read, scan := everySeed.config("paper").f4Growth()
	if !read.sharp() {
		t.Errorf("F4: mean read growth %v does not clear the %.2f margin with its interval above 1", read, f4Margin)
	}
	if !rises(scan) {
		t.Errorf("F4: mean scan growth %v does not rise, its interval not above 1", scan)
	}
	// Rendering sanity.
	figs := res.Figures()
	if len(figs) != 4 {
		t.Fatalf("figures = %d", len(figs))
	}
	if !strings.Contains(figs[0].Table().String(), "HBase") {
		t.Error("figure table missing series")
	}
}

// counterfactualFig1 returns the run the A1 and A2 tests judge: the
// reduced one, or the smoke one under -short.
func counterfactualFig1(t *testing.T) Fig1Results {
	t.Helper()
	run := reducedFig1
	if testing.Short() {
		run = smokeFig1
	}
	res, err := run()
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestFig1TwinsInertAtRF1 runs the two twin cells fig1Cells leaves out, at
// RF 1 and the smoke profile: without replicas neither knob has anything
// to act on, so each row must equal its paper row in every field but
// Config. That is why F4′ and F2′ may read the paper row as a twin's RF-1
// value.
func TestFig1TwinsInertAtRF1(t *testing.T) {
	t.Parallel()
	hb, ca := hbaseAt(1), cassandraAt(1, levels()[0])
	hb.syncRepl, ca.noReadRepair = true, true
	twins, err := sweep(SmokeOptions(), "fig1", []backend{hb, ca}, runFig1Cell)
	if err != nil {
		t.Fatal(err)
	}
	res, err := smokeFig1()
	if err != nil {
		t.Fatal(err)
	}
	if len(twins) != 2*len(microOrder) {
		t.Fatalf("twin rows = %d", len(twins))
	}
	for _, twin := range twins {
		paper := *res.at("paper", twin.DB, twin.Op, twin.RF)
		paper.Config = twin.Config
		if twin != paper {
			t.Errorf("%s rf1 %s differs from the paper cell: %+v, want %+v", twin.Config, twin.Op, twin, paper)
		}
	}
}

// TestAblationReadRepair judges F4′ (A1: Cassandra's read growth is read
// repair's); one step of RF under -short does not carry it.
func TestAblationReadRepair(t *testing.T) {
	t.Parallel()
	if f := findingByID(counterfactualFig1(t).Findings(), "F4′"); f == nil || !f.Pass && !testing.Short() {
		t.Errorf("finding failed: %v", f)
	}
}

// TestAblationHBaseSyncRepl judges F2′ (A2: HBase's flat updates are
// in-memory replication's).
func TestAblationHBaseSyncRepl(t *testing.T) {
	t.Parallel()
	if f := findingByID(counterfactualFig1(t).Findings(), "F2′"); f == nil || !f.Pass {
		t.Errorf("finding failed: %v", f)
	}
}

func TestFig2ReproducesStressFindings(t *testing.T) {
	t.Parallel()
	if testing.Short() {
		// 1-cell smoke: one database at one RF, plumbing only.
		res, err := runFig2Cell(SmokeOptions(), hbaseAt(3))
		if err != nil {
			t.Fatal(err)
		}
		if len(res) != 5 {
			t.Fatalf("smoke results = %d, want 5 workloads", len(res))
		}
		if len(res.ThroughputFigures()) != 5 {
			t.Fatal("smoke figures malformed")
		}
		return
	}
	o := reducedOptions()
	res, err := RunFig2(o)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 2*2*5 {
		t.Fatalf("results = %d", len(res))
	}
	findings := res.Findings()
	checkFindingsBlock(t, "fig2", "Reduced profile (`reducedOptions`)", o, findings)
	allPass(t, findings)
	if len(res.ThroughputFigures()) != 5 || len(res.LatencyFigures()) != 5 {
		t.Error("figure panels missing")
	}
}

func TestFig3ReproducesConsistencyFindings(t *testing.T) {
	t.Parallel()
	if testing.Short() {
		// 1-cell smoke: one workload at one consistency level.
		o := SmokeOptions()
		spec := ycsb.StressWorkloads(o.StressRecords)[0]
		res, err := runFig3Cell(o, fig3Cell{lv: levels()[1], spec: spec})
		if err != nil {
			t.Fatal(err)
		}
		if len(res) != 1 || res[0].Level != "QUORUM" || res[0].Runtime <= 0 {
			t.Fatalf("smoke results = %+v", res)
		}
		return
	}
	o := reducedOptions()
	res, err := RunFig3(o)
	if err != nil {
		t.Fatal(err)
	}
	findings := res.Findings()
	checkFindingsBlock(t, "fig3", "Reduced profile (`reducedOptions`)", o, findings)
	for _, f := range findings {
		t.Log(f)
		// F6a is the documented deviation (see EXPERIMENTS.md); the
		// others must reproduce.
		if !f.Pass && f.ID != "F6a" {
			t.Errorf("finding failed: %s", f)
		}
	}
	if len(res.Figures()) != 5 {
		t.Error("figure panels missing")
	}
}

func TestAblationClientThreads(t *testing.T) {
	o := SmokeOptions()
	a, err := AblationClientThreads(o)
	if err != nil {
		t.Fatal(err)
	}
	findings := a.Findings()
	checkFindingsBlock(t, "ablation-a3", "Smoke profile (`SmokeOptions`)", o, findings)
	allPass(t, findings)
}

func TestFindingString(t *testing.T) {
	f := Finding{ID: "F1", Claim: "x", Pass: true, Detail: "d"}
	if !strings.Contains(f.String(), "✓") {
		t.Error("pass mark missing")
	}
	f.Pass = false
	if !strings.Contains(f.String(), "✗") {
		t.Error("fail mark missing")
	}
}
