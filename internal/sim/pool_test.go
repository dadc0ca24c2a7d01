package sim

import (
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
	"time"
)

func TestRunCellsPreservesOrder(t *testing.T) {
	for _, workers := range []int{1, 2, 4, 16} {
		out, err := RunCells(workers, 10, func(i int) (int, error) {
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
	_, err := RunCells(workers, n, func(i int) (struct{}, error) {
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
	_, err := RunCells(2, 100, func(i int) (int, error) {
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
		_, err := RunCells(4, 8, func(i int) (int, error) {
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
	_, _ = RunCells(2, 4, func(i int) (int, error) {
		if i == 1 {
			panic("kernel invariant")
		}
		return i, nil
	})
	t.Fatal("expected panic")
}

func TestRunCellsSequentialStopsAtFirstError(t *testing.T) {
	var ran []int
	_, err := RunCells(1, 5, func(i int) (int, error) {
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

// TestRunCellsLowestPanicWins: when two cells panic, the lowest index's
// panic is the one re-raised, whichever happened first on the host. Cell 1
// panics at once; cell 0, claimed before it, panics a moment later.
func TestRunCellsLowestPanicWins(t *testing.T) {
	defer func() {
		if r := recover(); r != "cell 0" {
			t.Fatalf("recovered %v, want cell 0", r)
		}
	}()
	_, _ = RunCells(2, 2, func(i int) (int, error) {
		if i == 0 {
			time.Sleep(10 * time.Millisecond)
		}
		panic(fmt.Sprintf("cell %d", i))
	})
	t.Fatal("expected panic")
}
