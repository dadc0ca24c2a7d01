package core

import (
	"errors"
	"fmt"
	"reflect"
	"sync/atomic"
	"testing"
	"time"
)

func TestRunCellsPreservesOrder(t *testing.T) {
	for _, workers := range []int{1, 2, 4, 16} {
		out, err := runCells(workers, 10, func(i int) (int, error) {
			return i * i, nil
		})
		if err != nil {
			t.Fatal(err)
		}
		for i, v := range out {
			if v != i*i {
				t.Fatalf("workers=%d: out[%d] = %d, want %d", workers, i, v, i*i)
			}
		}
	}
}

func TestRunCellsBoundsConcurrency(t *testing.T) {
	const workers, n = 3, 24
	var inFlight, peak atomic.Int64
	_, err := runCells(workers, n, func(i int) (struct{}, error) {
		cur := inFlight.Add(1)
		for {
			p := peak.Load()
			if cur <= p || peak.CompareAndSwap(p, cur) {
				break
			}
		}
		time.Sleep(time.Millisecond)
		inFlight.Add(-1)
		return struct{}{}, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if p := peak.Load(); p > workers {
		t.Fatalf("peak in-flight cells = %d, want ≤ %d", p, workers)
	}
}

func TestRunCellsFirstErrorCancelsRest(t *testing.T) {
	boom := errors.New("boom")
	var started atomic.Int64
	_, err := runCells(2, 100, func(i int) (int, error) {
		started.Add(1)
		if i == 3 {
			return 0, fmt.Errorf("cell %d: %w", i, boom)
		}
		time.Sleep(time.Millisecond)
		return i, nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want wrapped boom", err)
	}
	if s := started.Load(); s == 100 {
		t.Error("error did not cancel outstanding cells")
	}
}

func TestRunCellsReturnsLowestIndexedError(t *testing.T) {
	// With every cell failing, the reported error must be a deterministic
	// function of the cells, not of host goroutine scheduling.
	for trial := 0; trial < 10; trial++ {
		_, err := runCells(4, 8, func(i int) (int, error) {
			return 0, fmt.Errorf("cell-%d", i)
		})
		if err == nil {
			t.Fatal("want error")
		}
		// Workers claim cells in index order, so cell 0's error always
		// exists; lowest-index selection must report it.
		if got := err.Error(); got != "cell-0" {
			t.Fatalf("trial %d: err = %q, want cell-0", trial, got)
		}
	}
}

func TestRunCellsPropagatesPanics(t *testing.T) {
	defer func() {
		if r := recover(); r != "kernel invariant" {
			t.Fatalf("recovered %v, want kernel invariant", r)
		}
	}()
	_, _ = runCells(2, 4, func(i int) (int, error) {
		if i == 1 {
			panic("kernel invariant")
		}
		return i, nil
	})
	t.Fatal("expected panic")
}

func TestRunCellsSequentialStopsAtFirstError(t *testing.T) {
	var ran []int
	_, err := runCells(1, 5, func(i int) (int, error) {
		ran = append(ran, i)
		if i == 2 {
			return 0, errors.New("stop")
		}
		return i, nil
	})
	if err == nil || len(ran) != 3 {
		t.Fatalf("ran = %v, err = %v; want stop after cell 2", ran, err)
	}
}

// TestSweepOrdersRowsAndLabelsErrors: sweep concatenates each cell's rows in
// cell enumeration order whatever the completion order, and a failing
// cell's error names the experiment and the cell — for Fig. 3, the level
// *and* the workload, without which a failing grid cell cannot be found.
func TestSweepOrdersRowsAndLabelsErrors(t *testing.T) {
	o := Options{Parallelism: 4}
	rows, err := sweep(o, "demo", []int{3, 1, 2}, func(_ Options, n int) ([]int, error) {
		time.Sleep(time.Duration(n) * time.Millisecond) // finish out of order
		out := make([]int, n)
		for i := range out {
			out[i] = n
		}
		return out, nil
	})
	if want := []int{3, 3, 3, 1, 2, 2}; err != nil || !reflect.DeepEqual(rows, want) {
		t.Fatalf("rows = %v, %v; want %v", rows, err, want)
	}

	boom := errors.New("boom")
	_, err = sweep(o, "fig3", fig3Cells(SmokeOptions(), levels(), nil), func(_ Options, c fig3Cell) ([]int, error) {
		if c.lv.Name == "QUORUM" && c.spec.Name == "read-update" {
			return nil, boom
		}
		return nil, nil
	})
	if !errors.Is(err, boom) || err.Error() != "fig3 QUORUM/read-update: boom" {
		t.Fatalf("sweep error = %v, want the cell's level and workload in the label", err)
	}
}

// TestParallelSweepDeterminism is the regression test for the scheduler's
// core guarantee: fanning cells out across workers must not perturb seeds,
// interleavings, or result ordering. A sequential and a 4-worker run of the
// same Fig. 2 sweep must be deep-equal, bit for bit.
func TestParallelSweepDeterminism(t *testing.T) {
	o := QuickOptions()
	o.ReplicationFactors = []int{1, 6}
	o.StressRecords = 1_500
	o.StressOps = 2_500
	if testing.Short() {
		o.ReplicationFactors = []int{3}
	}

	seq := o
	seq.Parallelism = 1
	a, err := RunFig2(seq)
	if err != nil {
		t.Fatal(err)
	}

	par := o
	par.Parallelism = 4
	b, err := RunFig2(par)
	if err != nil {
		t.Fatal(err)
	}

	if !reflect.DeepEqual(a, b) {
		for i := range a {
			if i < len(b) && !reflect.DeepEqual(a[i], b[i]) {
				t.Errorf("first divergence at row %d:\nseq: %+v\npar: %+v", i, a[i], b[i])
				break
			}
		}
		t.Fatalf("sequential and parallel sweeps differ (%d vs %d rows)", len(a), len(b))
	}
}
