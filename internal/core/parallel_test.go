package core

import (
	"errors"
	"reflect"
	"testing"
	"time"
)

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
	o := SmokeOptions()
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
