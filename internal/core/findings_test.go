package core

import (
	"strings"
	"testing"
	"time"

	"cloudbench/internal/geo"
	"cloudbench/internal/stats"
)

// The shape tests below feed each Findings method synthetic rows: one grid
// with the paper's shape, on which every finding passes, then one edit per
// finding that breaks exactly the shape that finding asserts. They pin
// the verdict logic independent of the simulator.

// allPass fails t for every finding in fs that does not pass, and when fs
// is empty.
func allPass(t *testing.T, fs []Finding) {
	t.Helper()
	if len(fs) == 0 {
		t.Fatal("no findings")
	}
	for _, f := range fs {
		if !f.Pass {
			t.Errorf("finding failed: %s", f)
		}
	}
}

// findingByID returns the finding id in fs, or nil.
func findingByID(fs []Finding, id string) *Finding {
	for i := range fs {
		if fs[i].ID == id {
			return &fs[i]
		}
	}
	return nil
}

// fails fails t unless finding id is present in fs and does not pass.
func fails(t *testing.T, fs []Finding, id, why string) {
	t.Helper()
	if f := findingByID(fs, id); f == nil || f.Pass {
		t.Errorf("%s passed %s", id, why)
	}
}

// synthFig1 is a Fig. 1 grid with the paper's shape: every median flat in
// RF, Cassandra's read and scan means rising with it. Its counterfactual
// twin has the shape F4′ and F2′ claim: with read repair off, Cassandra's
// means are flat; with synchronous replication, HBase's medians grow with
// RF.
func synthFig1() Fig1Results {
	var r Fig1Results
	twin := map[string]string{"HBase": "sync-replication", "Cassandra": "read-repair-off"}
	for _, db := range []string{"HBase", "Cassandra"} {
		for _, config := range []string{"paper", twin[db]} {
			for _, rf := range []int{1, 3, 6} {
				for _, op := range microOrder {
					m := MicroResult{DB: db, RF: rf, Op: op, Config: config, P50: time.Millisecond, Mean: time.Millisecond}
					switch {
					case config == "sync-replication":
						m.P50 = time.Duration(rf) * time.Millisecond / 2
					case config == "paper" && db == "Cassandra" && (op == "read" || op == "scan"):
						m.Mean += time.Duration(rf) * time.Millisecond / 2
					}
					r = append(r, m)
				}
			}
		}
	}
	return r
}

// at returns the row for (config, db, op, rf).
func (r Fig1Results) at(config, db, op string, rf int) *MicroResult {
	for i := range r {
		if r[i].Config == config && r[i].DB == db && r[i].Op == op && r[i].RF == rf {
			return &r[i]
		}
	}
	panic("no row " + config + "/" + db + "/" + op)
}

// synthF4Seeds is synthFig1's grid once per seed, seeds 1 to len(read),
// with Cassandra's mean read and scan latency growing by read[i] and
// scan[i] from RF 1 to RF 6 at seed i+1.
func synthF4Seeds(read, scan []float64) Fig1Results {
	var r Fig1Results
	for i := range read {
		g := synthFig1()
		for j := range g {
			g[j].Seed = int64(i + 1)
		}
		for op, growth := range map[string]float64{"read": read[i], "scan": scan[i]} {
			g.at("paper", "Cassandra", op, 6).Mean = time.Duration(growth * float64(g.at("paper", "Cassandra", op, 1).Mean))
		}
		r = append(r, g...)
	}
	return r
}

func TestCheckFig1Shape(t *testing.T) {
	allPass(t, synthFig1().Findings())

	r := synthFig1()
	r.at("paper", "HBase", "scan", 6).P50 = 2 * time.Millisecond
	fails(t, r.Findings(), "F1", "with HBase scan latency doubling over RF")

	r = synthFig1()
	r.at("paper", "HBase", "update", 3).P50 = 2 * time.Millisecond
	fails(t, r.Findings(), "F2", "with HBase update latency doubling over RF")

	r = synthFig1()
	r.at("paper", "Cassandra", "insert", 1).P50 = 2 * time.Millisecond
	fails(t, r.Findings(), "F3", "with Cassandra insert latency halving over RF")

	r = synthFig1()
	r.at("paper", "Cassandra", "scan", 6).Mean = r.at("paper", "Cassandra", "scan", 1).Mean
	fails(t, r.Findings(), "F4", "with Cassandra scan latency flat in RF")

	// One seed has no interval: F4 holds each growth to the 1.25 margin.
	for _, c := range []struct {
		growth float64
		pass   bool
		detail string
	}{
		{2.5, true, "mean read rf6/rf1=2.50 scan=2.50 (threshold 1.25)"},
		{1.17, false, "mean read rf6/rf1=1.17 scan=1.17 (threshold 1.25)"},
	} {
		one := []float64{c.growth}
		if f := findingByID(synthF4Seeds(one, one).Findings(), "F4"); f.Pass != c.pass || f.Detail != c.detail {
			t.Errorf("one seed growing %.2f: %s, want pass %v and %q", c.growth, f, c.pass, c.detail)
		}
	}

	// Over seeds, F4 holds when every seed rises sharply, and the other
	// findings judge seed 1 alone: seed 4's read growth fails F4′ and
	// seed 2's tripled medians fail F1–F3 if they are read.
	rising := synthF4Seeds([]float64{1.3, 1.5, 1.4, 1.6}, []float64{1.4, 1.3, 1.35, 1.5})
	for i := range rising {
		if rising[i].Seed == 2 && rising[i].RF == 6 {
			rising[i].P50 *= 3
		}
	}
	fs := rising.Findings()
	allPass(t, fs)
	if f := findingByID(fs, "F4"); !strings.Contains(f.Detail, "; geometric means over 4 seeds 1–4") {
		t.Errorf("F4 does not name its seeds: %s", f)
	}
	for _, c := range []struct {
		read, scan []float64
		why        string
	}{
		{[]float64{0.9, 1.1, 1.2}, []float64{0.9, 1.1, 1.2}, "with per-seed growth straddling 1"},
		// Read growth with read repair off, seeds 1–6 (ROADMAP probe 2).
		{[]float64{0.59, 0.79, 1.01, 0.99, 0.53, 0.96}, []float64{1.3, 1.4, 1.3, 1.5, 1.2, 1.4}, "with the read-repair-off shape"},
		{[]float64{1.5, 1.6, 1.7}, []float64{1, 1, 1}, "with scans flat at every seed"},
		// Each seed alone fails the margin, so their mean must too.
		{[]float64{1.1, 1.1, 1.1, 1.1, 1.1, 1.1, 1.1, 1.1}, []float64{1.5, 1.5, 1.5, 1.5, 1.5, 1.5, 1.5, 1.5}, "with reads rising 1.1 at every seed"},
		{[]float64{1.5, 1.6, 1.7}, []float64{1.2, 1.22, 1.24}, "with scans rising below the margin at every seed"},
		// A geometric mean above the margin whose interval reaches below 1.
		{[]float64{0.8, 2.5}, []float64{1.5, 1.5}, "with two seeds too far apart to show growth"},
	} {
		fails(t, synthF4Seeds(c.read, c.scan).Findings(), "F4", c.why)
	}
	// growth.rises, the recorded scan deviation's check, needs an interval
	// above 1 and no margin.
	for _, c := range []struct {
		ratios []float64
		rises  bool
	}{
		{[]float64{1.1, 1.2, 1.15}, true},
		{[]float64{0.9, 1.1, 1.2}, false},
		{[]float64{1.5}, false},
	} {
		_, g := synthF4Seeds(c.ratios, c.ratios).config("paper").f4Growth()
		if g.rises() != c.rises {
			t.Errorf("growth %v over %v: rises = %v, want %v", g, c.ratios, g.rises(), c.rises)
		}
	}

	r = synthFig1()
	for _, rf := range []int{1, 6} {
		r.at("read-repair-off", "Cassandra", "read", rf).Mean = r.at("paper", "Cassandra", "read", rf).Mean
	}
	fails(t, r.Findings(), "F4′", "with repair off growing as fast as on")

	r = synthFig1()
	r.at("sync-replication", "HBase", "update", 1).P50 = 3 * time.Millisecond
	fails(t, r.Findings(), "F2′", "with sync growing no faster than in-memory")

	r = synthFig1()
	r.at("sync-replication", "HBase", "update", 6).P50 = 900 * time.Microsecond
	fails(t, r.Findings(), "F2′", "with sync faster at the top RF")
}

// synthFig2 is a Fig. 2 grid with the paper's shape: HBase throughput
// flat in RF, Cassandra's halving from RF 1 to RF 6 while its latency
// doubles.
func synthFig2() Fig2Results {
	var r Fig2Results
	for _, db := range []string{"HBase", "Cassandra"} {
		for _, wl := range workloadOrder() {
			for _, rf := range []int{1, 6} {
				m := StressResult{DB: db, RF: rf, Workload: wl, Throughput: 1000, Mean: 10 * time.Millisecond}
				if db == "Cassandra" && rf == 6 {
					m.Throughput, m.Mean = 500, 20*time.Millisecond
				}
				r = append(r, m)
			}
		}
	}
	return r
}

// at returns the row for (db, workload, rf).
func (r Fig2Results) at(db, wl string, rf int) *StressResult {
	for i := range r {
		if r[i].DB == db && r[i].Workload == wl && r[i].RF == rf {
			return &r[i]
		}
	}
	panic("no row " + db + "/" + wl)
}

func TestCheckFig2Shape(t *testing.T) {
	allPass(t, synthFig2().Findings())

	r := synthFig2()
	r.at("Cassandra", "read-latest", 6).Mean = 5 * time.Millisecond
	fails(t, r.Findings(), "F5a", "with throughput and latency falling together")

	r = synthFig2()
	m := r.at("HBase", "scan-short-ranges", 6)
	m.Throughput, m.Mean = 400, 25*time.Millisecond
	fails(t, r.Findings(), "F5b", "with HBase throughput falling 2.5x over RF")

	r = synthFig2()
	for _, wl := range []string{"read-mostly", "read-update"} {
		m := r.at("Cassandra", wl, 6)
		m.Throughput, m.Mean = 1000, 10*time.Millisecond
	}
	fails(t, r.Findings(), "F5c", "with two Cassandra workloads not degraded")
}

// synthFig3 is a Fig. 3 grid with the paper's shape, each (workload,
// level) one unthrottled row and one throttled row below it.
func synthFig3() Fig3Results {
	capacity := map[string][3]float64{ // ONE, QUORUM, writeALL
		"read-latest":       {90, 100, 100},
		"scan-short-ranges": {100, 100, 100},
		"read-mostly":       {100, 99, 98},
		"read-modify-write": {100, 95, 90},
		"read-update":       {100, 98, 80},
	}
	var r Fig3Results
	for i, lv := range levels() {
		for _, wl := range workloadOrder() {
			c := capacity[wl][i]
			r = append(r,
				ConsistencyResult{Workload: wl, Level: lv.Name, Runtime: c, Mean: time.Millisecond},
				ConsistencyResult{Workload: wl, Level: lv.Name, Target: 50, Runtime: 50, Mean: time.Millisecond})
		}
	}
	return r
}

// setCapacity sets the unthrottled runtime of (workload, level).
func (r Fig3Results) setCapacity(wl, level string, runtime float64) {
	for i := range r {
		if r[i].Workload == wl && r[i].Level == level && r[i].Target == 0 {
			r[i].Runtime = runtime
		}
	}
}

func TestCheckFig3Shape(t *testing.T) {
	allPass(t, synthFig3().Findings())

	r := synthFig3()
	r.setCapacity("read-latest", "ONE", 110)
	fails(t, r.Findings(), "F6a", "with ONE best on read-latest")

	r = synthFig3()
	r.setCapacity("scan-short-ranges", "writeALL", 80)
	fails(t, r.Findings(), "F6b", "with a 1.25 spread on scans")

	r = synthFig3()
	r.setCapacity("read-update", "writeALL", 100)
	fails(t, r.Findings(), "F6c", "with writeALL tied for best on read-update")

	r = synthFig3()
	r.setCapacity("read-mostly", "writeALL", 50)
	fails(t, r.Findings(), "F6d", "with the read-mostly spread above read-update's")
}

// synthSpectrum fills the spectrum grid of o with the expected shape.
// The synchronous half: HBase and Cassandra at QUORUM/writeALL never
// stale, CL=ONE staler at every step up in RF, and Cassandra's fault cell
// staler than its healthy twin with hints replayed. The asynchronous half:
// the object store acks as fast as CL=ONE but reads staler, its
// visibility tail grows with RF and, under faults, with the anti-entropy
// interval, and read-quorum halves read-one's staleness.
func synthSpectrum(o Options) SpectrumResults {
	var r SpectrumResults
	for _, c := range spectrumCells(o) {
		m := SpectrumResult{
			DB: c.db, Workload: c.spec.Name, Level: c.level(), RF: c.rf,
			ReplInterval: c.interval, Fault: c.fault,
			Runtime: 1000, WriteP99: 10 * time.Millisecond,
		}
		m.Consistency.Reads = 10_000
		switch {
		case c.db == "ObjStore" && c.fault:
			m.Consistency.TVisAllP99 = 5 * c.interval
		case c.db == "ObjStore":
			m.Consistency.StaleReads = 3000
			if m.Level == "async/read-quorum" {
				m.Consistency.StaleReads = 1500
			}
			m.Consistency.AsyncRegressions = 20
			m.Consistency.TVisAllP99 = time.Duration(c.rf) * 10 * time.Millisecond
		case c.fault:
			m.Consistency.StaleReads = 100 * int64(c.rf)
			m.Consistency.HintApplies = 7
			// Longer than any object-store fault cell's: FS3 fails if it
			// reads this cell.
			m.Consistency.TVisAllP99 = time.Hour
		case m.Level == "ONE":
			m.Consistency.StaleReads = 10 * int64(c.rf)
		}
		r = append(r, m)
	}
	return r
}

// TestCheckAuditShape breaks the synchronous half's shapes one at a time.
func TestCheckAuditShape(t *testing.T) {
	o := SmokeOptions()
	anchor := anchorRF(o)
	allPass(t, synthSpectrum(o).Findings())

	r := synthSpectrum(o)
	r.get("HBase", "read-update", "strong", 1, 0).Consistency.MonotonicViolations = 1
	fails(t, r.Findings(), "FA1", "with an HBase monotonic violation")

	r = synthSpectrum(o)
	r.get("Cassandra", "read-latest", "QUORUM", anchor, 0).Consistency.StaleReads = 1
	fails(t, r.Findings(), "FA2", "with a stale quorum read")

	r = synthSpectrum(o)
	r.get("Cassandra", "read-latest", "ONE", anchor, 0).Consistency.StaleReads = 10
	fails(t, r.Findings(), "FA3", "on a CL=ONE plateau in RF")

	r = synthSpectrum(o)
	r.faults("Cassandra")[0].Consistency.HintApplies = 0
	fails(t, r.Findings(), "FA4", "without hint replays")

	r = synthSpectrum(o)
	r.faults("Cassandra")[0].Consistency.StaleReads = 1
	fails(t, r.Findings(), "FA4", "with the fault cell less stale than healthy")
}

// TestCheckSpectrumShape breaks the asynchronous half's shapes one at a
// time.
func TestCheckSpectrumShape(t *testing.T) {
	o := SmokeOptions()
	anchor, fastest := anchorRF(o), o.SpectrumReplIntervals[0]
	allPass(t, synthSpectrum(o).Findings())

	r := synthSpectrum(o)
	r.get("Cassandra", "read-update", "ONE", anchor, 0).WriteP99 = 5 * time.Millisecond
	fails(t, r.Findings(), "FS1", "with the async write tail twice CL=ONE's")

	r = synthSpectrum(o)
	for _, rf := range o.ReplicationFactors {
		r.get("ObjStore", "read-latest", "async/read-one", rf, fastest).Consistency.TVisAllP99 = time.Second
	}
	fails(t, r.Findings(), "FS2", "with all-replica visibility flat in RF")

	r = synthSpectrum(o)
	f := r.faults("ObjStore")
	f[0].Consistency.TVisAllP99, f[1].Consistency.TVisAllP99 = f[1].Consistency.TVisAllP99, f[0].Consistency.TVisAllP99
	fails(t, r.Findings(), "FS3", "with visibility falling as the interval grows")

	r = synthSpectrum(o)
	r.get("ObjStore", "read-update", "async/read-quorum", anchor, fastest).Consistency.StaleReads = 4000
	fails(t, r.Findings(), "FS4", "with read-quorum staler than read-one")
}

// synthGeo fills the geo grid of o with the expected shape.
func synthGeo(o Options) GeoResults {
	var r GeoResults
	for _, c := range geoCells(o) {
		m := GeoResult{
			DCs: c.dcs, RTT: c.rtt, Level: c.lv.Name, PerDC: rfLabel(c.perDC), Mode: c.mode,
			Throughput: 1000, WriteMean: 2 * time.Millisecond, WriteP99: 4 * time.Millisecond,
		}
		m.Consistency.Reads = 10_000
		switch c.lv.Name {
		case "EACH_QUORUM":
			m.WriteMean, m.WriteP99 = c.rtt+time.Millisecond, c.rtt+5*time.Millisecond
			if c.mode == geoModeFault {
				m.Errors = 100
			}
		case "LOCAL_QUORUM":
			m.Consistency.StaleReads = 1000
		case "ONE":
			m.Consistency.StaleReads = 1200
		case "adaptive":
			m.Consistency.StaleReads = 1000
			m.Adaptive = &geo.Metrics{OpsPerStage: []int64{20, 1000}, StepDowns: 1}
			m.AdaptiveStage = "LOCAL_QUORUM"
		}
		r = append(r, m)
	}
	return r
}

func TestCheckGeoShape(t *testing.T) {
	o := SmokeOptions()
	anchor := rfLabel(geoUniformRF(2, 2))
	allPass(t, synthGeo(o).Findings())

	r := synthGeo(o)
	r.find(geoModeGrid, 2, 200*time.Millisecond, "LOCAL_QUORUM", anchor).WriteMean = 10 * time.Millisecond
	fails(t, r.Findings(), "FG1", "with LOCAL_QUORUM write latency growing 5x with RTT")

	r = synthGeo(o)
	r.find(geoModeGrid, 2, geoAnchorRTT, "EACH_QUORUM", anchor).Consistency.StaleReads = 1
	fails(t, r.Findings(), "FG2", "with a stale read at EACH_QUORUM")

	r = synthGeo(o)
	r.find(geoModeAdaptive, 2, geoAnchorRTT, "adaptive", anchor).WriteP99 = 50 * time.Millisecond
	fails(t, r.Findings(), "FG3", "with the adaptive client over the deadline")

	r = synthGeo(o) // the anchor grid cell is FG3's fixed side
	r.find(geoModeGrid, 2, geoAnchorRTT, "EACH_QUORUM", anchor).WriteP99 = 30 * time.Millisecond
	fails(t, r.Findings(), "FG3", "with fixed EACH_QUORUM inside the deadline")

	r = synthGeo(o)
	r.find(geoModeFault, 2, geoAnchorRTT, "LOCAL_QUORUM", anchor).Errors = 1
	fails(t, r.Findings(), "FG4", "with LOCAL_QUORUM failing writes under partition")
}

// synthFigure is a figure of one series per name, each with points
// (x[i], ys[name][i]), in the order of names.
func synthFigure(x []float64, names []string, ys map[string][]float64) *stats.Figure {
	f := stats.NewFigure("synthetic", "x", "y")
	for _, name := range names {
		s := f.AddSeries(name)
		for i, y := range ys[name] {
			s.Add(x[i], y)
		}
	}
	return f
}

func TestCheckAblationShapes(t *testing.T) {
	threads := []float64{1, 2, 4, 8}
	a3 := func(ys ...float64) ClientThreadsAblation {
		return ClientThreadsAblation{synthFigure(threads, []string{"HBase"}, map[string][]float64{"HBase": ys})}
	}
	allPass(t, a3(900, 400, 200, 150).Findings())
	fails(t, a3(900, 400, 400, 150).Findings(), "M1", "with a plateau between 2 and 4 threads")
}

// synthFailover is a failover run with the claimed shape: the weak levels
// lose a few in-flight requests at the failure and replay hints, ALL and
// HBase error in every bucket of the outage.
func synthFailover() FailoverResults {
	buckets := int(failoverEnd/failoverBucket) + 1
	failB, recoverB := int(failoverFailAt/failoverBucket), int(failoverRecoverAt/failoverBucket)
	var r FailoverResults
	for _, sys := range []string{"Cassandra-ONE", "Cassandra-QUORUM", "Cassandra-ALL", "HBase"} {
		tl := FailoverTimeline{System: sys, Bucket: failoverBucket, OK: make([]int64, buckets), Errors: make([]int64, buckets)}
		switch sys {
		case "Cassandra-ALL", "HBase":
			for b := failB; b <= recoverB; b++ {
				tl.Errors[b] = 20
			}
		default:
			tl.Errors[failB] = 3
			tl.Replays = 100
		}
		r = append(r, tl)
	}
	return r
}

func TestCheckFailoverShape(t *testing.T) {
	allPass(t, synthFailover().Findings())

	r := synthFailover()
	r[1].Errors[5] = failoverThreads
	fails(t, r.Findings(), "FF1", "with QUORUM erroring more than one request per thread")

	r = synthFailover()
	r[0].Errors[len(r[0].Errors)-1] = 1
	fails(t, r.Findings(), "FF1", "with ONE erroring after the outage")

	r = synthFailover()
	r[3].Errors[1] = 1
	fails(t, r.Findings(), "FF2", "with HBase erroring before the outage")

	r = synthFailover()
	r[2].Errors = make([]int64, len(r[2].Errors))
	fails(t, r.Findings(), "FF2", "with ALL available through the outage")

	r = synthFailover()
	r[1].Replays = 0
	fails(t, r.Findings(), "FF3", "with no hints replayed at QUORUM")

	fails(t, synthFailover()[:3].Findings(), "FF2", "with no HBase timeline")
}

// TestFindingsOnNoRows: a claim with no data behind it fails. Every family
// judges empty results without panicking, and none of its findings pass.
func TestFindingsOnNoRows(t *testing.T) {
	for name, rep := range map[string]Report{
		"fig1":        Fig1Results(nil),
		"fig2":        Fig2Results(nil),
		"fig3":        Fig3Results(nil),
		"spectrum":    SpectrumResults(nil),
		"geo":         GeoResults(nil),
		"tracebreak":  TraceResults(nil),
		"ablation-a3": ClientThreadsAblation{stats.NewFigure("", "", "")},
		"failover":    FailoverResults(nil),
	} {
		func() {
			defer func() {
				if p := recover(); p != nil {
					t.Errorf("%s: Findings panicked on no rows: %v", name, p)
				}
			}()
			for _, f := range rep.Findings() {
				if f.Pass {
					t.Errorf("%s: %s passed with no rows", name, f)
				}
			}
		}()
	}
}
