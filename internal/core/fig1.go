package core

import (
	"fmt"
	"slices"
	"time"

	"cloudbench/internal/sim"
	"cloudbench/internal/stats"
	"cloudbench/internal/ycsb"
)

// MicroResult is one point of Fig. 1: one database, one replication
// factor, one atomic operation, under the paper's configuration or the
// counterfactual that switches off the mechanism §4.1 credits, from the
// run at Seed.
type MicroResult struct {
	Seed       int64
	DB         string
	RF         int
	Op         string
	Config     string // "paper", "read-repair-off" or "sync-replication"
	Mean       time.Duration
	P50        time.Duration
	P95        time.Duration
	Throughput float64
}

// Fig1Results collects the full micro-benchmark sweep.
type Fig1Results []MicroResult

// microOrder is the paper's in-round test order: update, read, insert, scan
// (§4.1 runs "the update/read/insert/scan test one after another"). The
// order matters: reads follow updates, which is the read-after-write
// pipeline that triggers Cassandra's read repair.
var microOrder = []string{"update", "read", "insert", "scan"}

func microSpec(op string, records int64) ycsb.Spec {
	switch op {
	case "update":
		return ycsb.MicroUpdate(records)
	case "read":
		return ycsb.MicroRead(records)
	case "insert":
		return ycsb.MicroInsert(records)
	default:
		return ycsb.MicroScan(records)
	}
}

// RunFig1 reproduces the micro benchmark for replication: six rounds, one
// per replication factor, each running the four atomic tests back to back
// on an unsaturated cluster, for both databases. Rounds are independent
// simulations and fan out across the sweep scheduler (Options.Parallelism).
func RunFig1(o Options) (Fig1Results, error) {
	return sweep(o, "fig1", fig1Cells(o), runFig1Cell)
}

// fig1Cells is the paper's database × RF grid (dbRFCells) followed by its
// counterfactual twin in the same order: each HBase cell with synchronous
// disk replication in place of in-memory replication (F2′), each Cassandra
// cell with read repair off (F4′).
func fig1Cells(o Options) []backend {
	cells := dbRFCells(o)
	for _, b := range cells { // ranges over the paper cells only
		b.syncRepl, b.noReadRepair = b.db == "HBase", b.db == "Cassandra"
		cells = append(cells, b)
	}
	return cells
}

// runFig1Cell runs one round of the micro benchmark: one database at one
// replication factor, the four atomic tests in paper order.
func runFig1Cell(o Options, b backend) (Fig1Results, error) {
	d := deploy(o, b, ycsb.MicroUpdate(o.MicroRecords)) // shape only; used for load
	var out Fig1Results
	err := d.run(o.Threads, func(p *sim.Proc) {
		for _, op := range microOrder {
			res := d.phase(p, microSpec(op, o.MicroRecords), ycsb.RunConfig{
				Threads:        o.MicroThreads,
				Ops:            o.MicroOps,
				WarmupFraction: warmupFraction,
			})
			out = append(out, MicroResult{
				Seed:       o.Seed,
				DB:         b.db,
				RF:         b.rf,
				Op:         op,
				Config:     b.config(),
				Mean:       res.MeanLatency(),
				P50:        res.Overall.Percentile(50),
				P95:        res.Overall.Percentile(95),
				Throughput: res.Throughput,
			})
			p.Sleep(quiesce / 4)
		}
	})
	return out, err
}

// Figures renders Fig. 1 as one latency-vs-RF panel per operation, with a
// series per database — the same panels the paper plots, of the paper's
// configuration only.
func (r Fig1Results) Figures() []*stats.Figure {
	var figs []*stats.Figure
	r = r.config("paper")
	for _, op := range microOrder {
		f := stats.NewFigure(
			fmt.Sprintf("Fig. 1 (micro replication): %s latency vs replication factor", op),
			"replication-factor", "median latency (µs)")
		for _, db := range []string{"HBase", "Cassandra"} {
			s := f.AddSeries(db)
			for _, m := range r {
				if m.DB == db && m.Op == op {
					s.Add(float64(m.RF), float64(m.P50.Microseconds()))
				}
			}
		}
		figs = append(figs, f)
	}
	return figs
}

// Tables renders Fig. 1 as the paper's panels followed by every point as
// one row.
func (r Fig1Results) Tables() []*stats.Table {
	t := stats.NewTable("Fig. 1 — micro benchmark for replication",
		"db", "config", "rf", "op", "median-latency", "mean-latency", "p95-latency", "ops/sec")
	for _, m := range r {
		t.AddRow(m.DB, m.Config, m.RF, m.Op,
			m.P50.Round(time.Microsecond).String(),
			m.Mean.Round(time.Microsecond).String(),
			m.P95.Round(time.Microsecond).String(),
			m.Throughput)
	}
	return append(figureTables(r.Figures()), t)
}

// config returns the rows of one configuration, in sweep order.
func (r Fig1Results) config(name string) Fig1Results {
	return r.filter(func(m MicroResult) bool { return m.Config == name })
}

// seed returns the rows of the run at one seed, in sweep order.
func (r Fig1Results) seed(s int64) Fig1Results {
	return r.filter(func(m MicroResult) bool { return m.Seed == s })
}

// seeds returns the seeds r holds rows of, in order of first appearance.
func (r Fig1Results) seeds() []int64 {
	var out []int64
	for _, m := range r {
		if !slices.Contains(out, m.Seed) {
			out = append(out, m.Seed)
		}
	}
	return out
}

// filter returns the rows keep accepts, in sweep order.
func (r Fig1Results) filter(keep func(MicroResult) bool) Fig1Results {
	var out Fig1Results
	for _, m := range r {
		if keep(m) {
			out = append(out, m)
		}
	}
	return out
}

// getMean returns the mean latency for a specific point, or -1.
func (r Fig1Results) getMean(db, op string, rf int) time.Duration {
	for _, m := range r {
		if m.DB == db && m.Op == op && m.RF == rf {
			return m.Mean
		}
	}
	return -1
}
