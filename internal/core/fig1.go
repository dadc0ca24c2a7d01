package core

import (
	"fmt"
	"time"

	"cloudbench/internal/sim"
	"cloudbench/internal/stats"
	"cloudbench/internal/ycsb"
)

// MicroResult is one point of Fig. 1: one database, one replication
// factor, one atomic operation.
type MicroResult struct {
	DB         string
	RF         int
	Op         string
	Mean       time.Duration
	P50        time.Duration
	P95        time.Duration
	Throughput float64
}

// Fig1Results collects the full micro-benchmark sweep.
type Fig1Results []MicroResult

// microOps is the paper's in-round test order: update, read, insert, scan
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
	return sweep(o, "fig1", dbRFCells(o), runFig1Cell)
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
				DB:         b.db,
				RF:         b.rf,
				Op:         op,
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
// series per database — the same panels the paper plots.
func (r Fig1Results) Figures() []*stats.Figure {
	var figs []*stats.Figure
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
		"db", "rf", "op", "median-latency", "mean-latency", "p95-latency", "ops/sec")
	for _, m := range r {
		t.AddRow(m.DB, m.RF, m.Op,
			m.P50.Round(time.Microsecond).String(),
			m.Mean.Round(time.Microsecond).String(),
			m.P95.Round(time.Microsecond).String(),
			m.Throughput)
	}
	return append(figureTables(r.Figures()), t)
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
