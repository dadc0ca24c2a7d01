package core

import (
	"fmt"
	"time"

	"cloudbench/internal/sim"
	"cloudbench/internal/stats"
	"cloudbench/internal/ycsb"
)

// SLA is a service-level agreement of the form the paper's §6 proposes as
// the better way to specify stress level: "at least Percentile percent of
// requests get response within Limit". Compliance is checked against the
// intended-latency distribution, so client backlog cannot hide a miss.
type SLA struct {
	Percentile float64
	Limit      time.Duration
}

// String renders the SLA, e.g. "p95 ≤ 10ms".
func (s SLA) String() string {
	return fmt.Sprintf("p%g ≤ %v", s.Percentile, s.Limit)
}

// Met reports whether a run satisfied the SLA.
func (s SLA) Met(res ycsb.Result) bool {
	return res.Intended.Percentile(s.Percentile) <= s.Limit
}

// SLAProbe is one step of the search.
type SLAProbe struct {
	Target  float64
	Runtime float64
	Latency time.Duration // intended latency at the SLA percentile
	Pass    bool
}

// SLAResult is the outcome of RunSLASearch: the highest sustainable
// throughput that still meets the SLA, and the probe trail.
type SLAResult struct {
	DB            string
	Workload      string
	SLA           SLA
	MaxThroughput float64
	Probes        []SLAProbe
}

// Tables renders the probe trail.
func (r SLAResult) Tables() []*stats.Table {
	t := stats.NewTable(
		fmt.Sprintf("SLA search — %s, %s, %s → max sustainable %.0f ops/s",
			r.DB, r.Workload, r.SLA, r.MaxThroughput),
		"target-ops/sec", "runtime-ops/sec", "latency-at-percentile", "meets-sla")
	for _, p := range r.Probes {
		t.AddRow(p.Target, p.Runtime, p.Latency.Round(time.Microsecond).String(), p.Pass)
	}
	return []*stats.Table{t}
}

// Findings is empty: the search reports a number, not a claim.
func (SLAResult) Findings() []Finding { return nil }

// RunSLASearch finds, by bisection over the target throughput, the
// maximum offered load at which the given database and workload still
// meet the SLA — the §6 extension that lets different systems be compared
// at equal user experience instead of equal offered load.
//
// Each probe is a self-contained deployment: isolating probes keeps a
// backlogged, overloaded probe from polluting the one after it, and makes
// every probe's result a pure function of (Options, target). Bisection is
// inherently sequential (each probe's target depends on the previous
// verdict), so the search is the one experiment that is not a sweep.
func RunSLASearch(o Options, db string, rf int, specFn func(int64) ycsb.Spec, sla SLA, probes int) (SLAResult, error) {
	if probes < 1 {
		probes = 6
	}
	spec := specFn(o.StressRecords)
	out := SLAResult{DB: db, SLA: sla, Workload: spec.Name}
	b := backend{db: db, rf: rf, lv: levels()[0]}

	// Capacity probe bounds the search.
	capRes, err := runSLAProbe(o, b, spec, 0)
	if err != nil {
		return out, err
	}
	lo, hi := 0.0, capRes.Throughput*1.25
	for i := 0; i < probes; i++ {
		target := (lo + hi) / 2
		res, err := runSLAProbe(o, b, spec, target)
		if err != nil {
			return out, err
		}
		pass := sla.Met(res)
		out.Probes = append(out.Probes, SLAProbe{
			Target:  target,
			Runtime: res.Throughput,
			Latency: res.Intended.Percentile(sla.Percentile),
			Pass:    pass,
		})
		if pass {
			lo = target
			if target > out.MaxThroughput {
				out.MaxThroughput = target
			}
		} else {
			hi = target
		}
	}
	return out, nil
}

// runSLAProbe deploys the database fresh, loads the base records, and runs
// the workload once at the given offered load — one probe cell.
func runSLAProbe(o Options, b backend, spec ycsb.Spec, target float64) (ycsb.Result, error) {
	d := deploy(o, b, spec)
	var out ycsb.Result
	err := d.run(o.Threads, func(p *sim.Proc) {
		out = d.phase(p, spec, o.stressRun(target))
	})
	return out, err
}
