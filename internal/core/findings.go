package core

import (
	"fmt"
	"slices"
	"time"

	"cloudbench/internal/stats"
)

// Finding is the verdict on one of the paper's qualitative claims,
// evaluated against reproduced results. Pass reports whether the
// reproduction matches the paper's claim; Detail carries the numbers.
type Finding struct {
	ID     string
	Claim  string
	Pass   bool
	Detail string
}

// String renders the finding as one report line.
func (f Finding) String() string {
	mark := "✗"
	if f.Pass {
		mark = "✓"
	}
	return fmt.Sprintf("%s %-4s %s — %s", mark, f.ID, f.Claim, f.Detail)
}

// Findings evaluates the paper's §4.1 micro-benchmark findings, F1–F4 on
// the paper's configuration, then F4′ and F2′, which test the mechanism
// §4.1 credits for F4 and F2 against its counterfactual twin. r may hold
// runs at several seeds: F4 judges them all, the others the first seed's.
func (r Fig1Results) Findings() []Finding {
	seeds, everySeed := r.seeds(), r.config("paper")
	if len(seeds) > 1 {
		r = r.seed(seeds[0])
	}
	paper := r.config("paper")
	spread := func(db, op string) float64 {
		var p50s []float64
		for _, m := range paper {
			if m.DB == db && m.Op == op {
				p50s = append(p50s, float64(m.P50))
			}
		}
		return stats.Spread(p50s...)
	}
	flat := func(a, b float64) bool { return a > 0 && a < 1.8 && b > 0 && b < 1.8 }
	var fs []Finding

	// F1: HBase read/scan latency ~flat in RF.
	fr, fsc := spread("HBase", "read"), spread("HBase", "scan")
	fs = append(fs, Finding{
		ID:     "F1",
		Claim:  "HBase read/scan latency flat in replication factor",
		Pass:   flat(fr, fsc),
		Detail: fmt.Sprintf("max/min read=%.2f scan=%.2f (threshold 1.8)", fr, fsc),
	})

	// F2: HBase insert/update latency ~flat in RF (in-memory replication).
	fu, fi := spread("HBase", "update"), spread("HBase", "insert")
	fs = append(fs, Finding{
		ID:     "F2",
		Claim:  "HBase insert/update latency flat in replication factor",
		Pass:   flat(fu, fi),
		Detail: fmt.Sprintf("max/min update=%.2f insert=%.2f (threshold 1.8)", fu, fi),
	})

	// F3: Cassandra insert/update latency ~flat in RF at CL=ONE.
	cu, ci := spread("Cassandra", "update"), spread("Cassandra", "insert")
	fs = append(fs, Finding{
		ID:     "F3",
		Claim:  "Cassandra insert/update latency flat in replication factor at ONE",
		Pass:   flat(cu, ci),
		Detail: fmt.Sprintf("max/min update=%.2f insert=%.2f (threshold 1.8)", cu, ci),
	})

	// F4: Cassandra read/scan latency rises with RF. The read-repair
	// burden is a load effect, so it shows in the mean (queue bursts and
	// saturation tails), which is also the statistic the paper plots;
	// the flat-in-RF checks above use medians only to reject pause noise.
	// Each seed's run gives one top-RF/bottom-RF ratio for read and one
	// for scan, and each must grow sharply (growth.sharp).
	minRF, maxRF := rfRange(paper, func(m MicroResult) int { return m.RF })
	read, scan := everySeed.f4Growth()
	f4Detail := fmt.Sprintf("mean read rf%d/rf%d=%v scan=%v (threshold %.2f", maxRF, minRF, read, scan, f4Margin)
	if len(seeds) > 1 {
		f4Detail += fmt.Sprintf("; geometric means over %d seeds %d–%d, 95%% intervals above 1", len(seeds), slices.Min(seeds), slices.Max(seeds))
	}
	fs = append(fs, Finding{
		ID:     "F4",
		Claim:  "Cassandra read/scan latency rises with replication factor",
		Pass:   read.sharp() && scan.sharp(),
		Detail: f4Detail + ")",
	})

	// F4′ and F2′ compare a statistic's growth from the lowest RF to the
	// highest between the paper's cells and their twins, in whole µs, the
	// resolution F2′ prints; top is the highest RF's value. A twin has no
	// row at RF 1 (fig1Cells), where it would equal its paper row.
	span := fmt.Sprintf("rf%d/rf%d", maxRF, minRF)
	growthOf := func(db, op, config string, stat func(MicroResult) time.Duration) (g, top float64) {
		at := func(config string, rf int) (float64, bool) {
			for _, m := range r {
				if m.DB == db && m.Op == op && m.Config == config && m.RF == rf {
					return float64(stat(m).Microseconds()), true
				}
			}
			return 0, false
		}
		top, _ = at(config, maxRF)
		lo, ok := at(config, minRF)
		if !ok {
			lo, _ = at("paper", minRF)
		}
		return stats.Ratio(top, lo), top
	}
	mean := func(m MicroResult) time.Duration { return m.Mean }
	median := func(m MicroResult) time.Duration { return m.P50 }

	// F4′: with read repair off, most of the mean read growth F4
	// measures goes away.
	on, _ := growthOf("Cassandra", "read", "paper", mean)
	off, _ := growthOf("Cassandra", "read", "read-repair-off", mean)
	effect := stats.Ratio(on, off)
	fs = append(fs, Finding{
		ID:     "F4′",
		Claim:  "read repair causes Cassandra's read latency growth with replication factor",
		Pass:   effect > 1.25,
		Detail: fmt.Sprintf("mean read %s: repair on=%.2f off=%.2f, on/off=%.2f (threshold 1.25)", span, on, off, effect),
	})

	// F2′: synchronous replication makes the median update latency grow
	// with RF where in-memory replication keeps it flat, and is slower
	// outright at the top RF.
	mem, memTop := growthOf("HBase", "update", "paper", median)
	sync, syncTop := growthOf("HBase", "update", "sync-replication", median)
	effect = stats.Ratio(sync, mem)
	fs = append(fs, Finding{
		ID:    "F2′",
		Claim: "in-memory replication is what keeps HBase's update latency flat in replication factor",
		Pass:  effect > 1.25 && syncTop > memTop,
		Detail: fmt.Sprintf("median update %s: sync=%.2f in-memory=%.2f, sync/in-memory=%.2f (threshold 1.25); top rf sync=%.0fµs in-memory=%.0fµs",
			span, sync, mem, effect, syncTop, memTop),
	})
	return fs
}

// f4Margin is the growth F4 asks of Cassandra's read and scan latency
// from the lowest RF to the highest: the paper has it rise sharply.
const f4Margin = 1.25

// growth is one of F4's ratios, top-RF over bottom-RF mean latency,
// over the seeds it was measured at: the geometric mean of the per-seed
// ratios and, over two or more seeds, its 95 % interval.
type growth struct {
	gm, lo, hi float64
	n          int
}

// sharp reports whether g clears F4's bar: its geometric mean is above
// f4Margin and, over two or more seeds, its interval lies above 1. At one
// seed that is the ratio's own point check.
func (g growth) sharp() bool { return g.gm > f4Margin && (g.n < 2 || g.lo > 1) }

// String prints the geometric mean, then the interval if there is one.
func (g growth) String() string {
	if g.n < 2 {
		return fmt.Sprintf("%.2f", g.gm)
	}
	return fmt.Sprintf("%.2f [%.2f, %.2f]", g.gm, g.lo, g.hi)
}

// f4Growth returns F4's two ratios, Cassandra's mean read and mean scan
// latency at the highest RF over the lowest, over every seed r holds rows
// of. r holds paper rows.
func (r Fig1Results) f4Growth() (read, scan growth) {
	minRF, maxRF := rfRange(r, func(m MicroResult) int { return m.RF })
	of := func(op string) growth {
		var ratios []float64
		for _, s := range r.seeds() {
			rows := r.seed(s)
			ratios = append(ratios, stats.Ratio(float64(rows.getMean("Cassandra", op, maxRF)), float64(rows.getMean("Cassandra", op, minRF))))
		}
		gm, lo, hi := stats.GeoMeanInterval(ratios)
		return growth{gm, lo, hi, len(ratios)}
	}
	return of("read"), of("scan")
}

// rfRange returns the smallest and largest replication factor among rows,
// or 0, 0 for none.
func rfRange[R any](rows []R, rf func(R) int) (lo, hi int) {
	for i, m := range rows {
		v := rf(m)
		if i == 0 || v < lo {
			lo = v
		}
		hi = max(hi, v)
	}
	return lo, hi
}

// Findings evaluates the paper's §4.2 stress-benchmark findings.
func (r Fig2Results) Findings() []Finding {
	var fs []Finding
	minRF, maxRF := rfRange(r, func(m StressResult) int { return m.RF })

	// F5a: runtime throughput inversely related to latency (closed loop).
	inversions := 0
	checked := 0
	for _, db := range []string{"HBase", "Cassandra"} {
		for _, wl := range workloadOrder() {
			tLo, lLo := r.get(db, wl, minRF)
			tHi, lHi := r.get(db, wl, maxRF)
			if tLo < 0 || tHi < 0 {
				continue
			}
			checked++
			// If throughput dropped, latency must have risen (and vice
			// versa), within 5% slack.
			if (tHi < tLo*0.95 && lHi <= lLo) || (tHi > tLo*1.05 && lHi >= lLo) {
				inversions++
			}
		}
	}
	fs = append(fs, Finding{
		ID:     "F5a",
		Claim:  "runtime throughput inversely related to latency",
		Pass:   checked > 0 && inversions == 0,
		Detail: fmt.Sprintf("%d/%d series consistent", checked-inversions, checked),
	})

	// F5b: HBase throughput ~flat in RF across workloads.
	worst := 0.0
	for _, wl := range workloadOrder() {
		tLo, _ := r.get("HBase", wl, minRF)
		tHi, _ := r.get("HBase", wl, maxRF)
		if tLo <= 0 || tHi <= 0 {
			continue
		}
		worst = max(worst, stats.Spread(tLo, tHi))
	}
	fs = append(fs, Finding{
		ID:     "F5b",
		Claim:  "HBase stress performance insignificant change in replication factor",
		Pass:   worst > 0 && worst < 2.0,
		Detail: fmt.Sprintf("worst rf%d-vs-rf%d throughput ratio=%.2f (threshold 2.0)", minRF, maxRF, worst),
	})

	// F5c: Cassandra read-heavy throughput degrades as RF grows.
	degraded := 0
	total := 0
	for _, wl := range workloadOrder() {
		tLo, _ := r.get("Cassandra", wl, minRF)
		tHi, _ := r.get("Cassandra", wl, maxRF)
		if tLo <= 0 || tHi <= 0 {
			continue
		}
		total++
		if tHi < tLo*0.9 {
			degraded++
		}
	}
	fs = append(fs, Finding{
		ID:     "F5c",
		Claim:  "Cassandra stress performance degrades significantly with replication factor",
		Pass:   total > 0 && degraded >= total-1, // read-heavy workloads dominate the suite
		Detail: fmt.Sprintf("%d/%d workloads degraded >10%% from rf%d to rf%d", degraded, total, minRF, maxRF),
	})
	return fs
}

// Findings evaluates the paper's §4.3 consistency findings against the
// reproduction. F6a (read-latest: ONE worst) is reported but is a known
// deviation — see EXPERIMENTS.md — so callers asserting reproduction
// should gate on the others.
func (r Fig3Results) Findings() []Finding {
	var fs []Finding

	// F6a: read latest — ONE worst, QUORUM/ALL closely better (paper).
	rl := r.peaks("read-latest")
	fs = append(fs, Finding{
		ID:     "F6a",
		Claim:  "read-latest: ONE worst, QUORUM/writeALL better (known deviation)",
		Pass:   rl[0] < rl[1] && rl[0] < rl[2],
		Detail: fmt.Sprintf("ONE=%.0f QUORUM=%.0f writeALL=%.0f", rl[0], rl[1], rl[2]),
	})

	// F6b: scan short ranges — all three levels close.
	sc := r.peaks("scan-short-ranges")
	scan := stats.Spread(sc[:]...)
	fs = append(fs, Finding{
		ID:     "F6b",
		Claim:  "scan-short-ranges: all consistency levels perform closely",
		Pass:   scan > 0 && scan < 1.15,
		Detail: fmt.Sprintf("ONE=%.0f QUORUM=%.0f writeALL=%.0f spread=%.2f (threshold 1.15)", sc[0], sc[1], sc[2], scan),
	})

	// F6c: write-heavy tests — the paper orders ONE best, QUORUM almost
	// worst, ALL worst. Asserted here is the weaker form of that claim:
	// write-ALL is strictly the worst level, and ONE is at or within noise
	// of the top. Even that fails at each of the reduced profile's seeds
	// 1–8 (EXPERIMENTS.md, "Known deviations").
	ru := r.peaks("read-update")
	ruOne, ruQ, ruAll := ru[0], ru[1], ru[2]
	fs = append(fs, Finding{
		ID:    "F6c",
		Claim: "read-update: writeALL worst; ONE at or near the top",
		Pass: ruAll < ruOne*0.95 && ruAll < ruQ*0.95 && // ALL strictly worst
			ruOne > max(ruOne, ruQ)*0.90, // ONE within 10% of the best level
		Detail: fmt.Sprintf("ONE=%.0f QUORUM=%.0f writeALL=%.0f", ruOne, ruQ, ruAll),
	})

	// F6d: the bigger the write proportion, the bigger the spread — the
	// best level's lead over the worst, 0 without data.
	rm := r.peaks("read-mostly")
	heavy := max(stats.Spread(ru[:]...)-1, 0) // 50% writes
	light := max(stats.Spread(rm[:]...)-1, 0) // 5% writes
	fs = append(fs, Finding{
		ID:     "F6d",
		Claim:  "bigger write proportion, more obvious consistency-level difference",
		Pass:   heavy > light,
		Detail: fmt.Sprintf("spread read-update=%.2f read-mostly=%.2f", heavy, light),
	})
	return fs
}
