package core

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
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

// sweep runs one experiment's cells on the worker pool and returns their
// rows concatenated in cell order. A failing cell's error is labelled
// "<experiment> <cell>", the cell formatted through its String method.
func sweep[C any, S ~[]R, R any](o Options, name string, cells []C, run func(Options, C) (S, error)) (S, error) {
	rows, err := runCells(o.workers(), len(cells), func(i int) (S, error) {
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

// workers resolves the effective worker-pool size: Options.Parallelism when
// set, otherwise one worker per available CPU.
func (o Options) workers() int {
	if o.Parallelism > 0 {
		return o.Parallelism
	}
	return runtime.GOMAXPROCS(0)
}

// runCells executes n independent cells on a bounded pool of workers and
// returns their results in cell order. Cells are claimed in index order, so
// one worker runs them one at a time in that order. The first cell error
// stops further cells from being claimed; cells already claimed run to
// completion. Because claims are in index order, every cell below the
// first erroring one completes, so the lowest-indexed recorded error — the
// one returned — is a deterministic function of the cells, independent of
// host scheduling. A panic inside a cell (e.g. a simulation invariant
// violation) is re-raised on the calling goroutine, as it would be in a
// sequential loop.
func runCells[T any](workers, n int, run func(i int) (T, error)) ([]T, error) {
	out := make([]T, n)
	workers = min(workers, n)
	var (
		next     atomic.Int64 // next unclaimed cell index
		canceled atomic.Bool  // set on first error; unstarted cells skip
		errs     = make([]error, n)
		panicked atomic.Pointer[any]
		wg       sync.WaitGroup
	)
	next.Store(-1)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				if canceled.Load() {
					return
				}
				i := int(next.Add(1))
				if i >= n {
					return
				}
				func() {
					defer func() {
						if r := recover(); r != nil {
							panicked.CompareAndSwap(nil, &r)
							canceled.Store(true)
						}
					}()
					v, err := run(i)
					if err != nil {
						errs[i] = err
						canceled.Store(true)
						return
					}
					out[i] = v
				}()
			}
		}()
	}
	wg.Wait()
	if p := panicked.Load(); p != nil {
		panic(*p)
	}
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return out, nil
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
