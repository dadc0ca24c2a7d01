package core

import (
	"fmt"

	"cloudbench/internal/sim"
)

// The parallel sweep scheduler.
//
// Every report is a sweep over independent cells — (database, replication
// factor) for Fig. 2 and, with its counterfactual twins, Fig. 1,
// (consistency level, workload) for Fig. 3, client threads for A3, the
// spectrum, tracebreak and geo grids, the failover systems. Each cell is a
// self-contained deterministic simulation: it builds its own sim.Kernel
// from Options.Seed, runs single-threaded in virtual time, and shares no
// state with any other cell. The sweep is therefore embarrassingly parallel
// across host CPUs, and parallel execution is bit-identical to sequential
// execution: the per-cell seed derivation is unchanged and rows are
// reassembled in cell enumeration order regardless of completion order.
//
// sweep is the single entry point: every experiment enumerates its cells,
// hands them to sweep with its cell runner (cell.go), and gets the rows
// back. Whatever is to be known per cell — its error label today, its wall
// clock or a manifest line tomorrow — attaches here once.

// sweep runs one experiment's cells on the worker pool (sim.RunCells) and
// returns their rows concatenated in cell order. A failing cell's error is
// labelled "<experiment> <cell>", the cell formatted through its String
// method.
func sweep[C any, S ~[]R, R any](o Options, name string, cells []C, run func(Options, C) (S, error)) (S, error) {
	rows, err := sim.RunCells(o.Parallelism, len(cells), func(i int) (S, error) {
		r, err := run(o, cells[i])
		if err != nil {
			return nil, fmt.Errorf("%s %v: %w", name, cells[i], err)
		}
		return r, nil
	})
	var out S
	for _, r := range rows {
		out = append(out, r...)
	}
	return out, err
}

// dbRFCells enumerates the canonical Fig. 1/2 sweep order: databases in
// paper order, replication factors ascending within each. Cassandra runs
// the default consistency strategy, ONE/ONE.
func dbRFCells(o Options) []backend {
	cells := make([]backend, 0, 2*len(o.ReplicationFactors))
	for _, rf := range o.ReplicationFactors {
		cells = append(cells, hbaseAt(rf))
	}
	for _, rf := range o.ReplicationFactors {
		cells = append(cells, cassandraAt(rf, levels()[0]))
	}
	return cells
}
