package stats

import "testing"

func TestSpread(t *testing.T) {
	for _, c := range []struct {
		vals []float64
		want float64
	}{
		{nil, 0},
		{[]float64{4}, 1},
		{[]float64{2, 8, 4}, 4},
		{[]float64{8, 2}, 4},
		{[]float64{0, 3}, 0},
		{[]float64{-1, 3}, 0},
	} {
		if got := Spread(c.vals...); got != c.want {
			t.Errorf("Spread(%v) = %v, want %v", c.vals, got, c.want)
		}
	}
}

func TestIncreasing(t *testing.T) {
	for _, c := range []struct {
		vals []float64
		want bool
	}{
		{nil, false},
		{[]float64{1}, false},
		{[]float64{1, 2}, true},
		{[]float64{1, 2, 3}, true},
		{[]float64{1, 2, 2}, false},
		{[]float64{3, 2, 1}, false},
	} {
		if got := Increasing(c.vals); got != c.want {
			t.Errorf("Increasing(%v) = %v, want %v", c.vals, got, c.want)
		}
	}
}

func TestRatio(t *testing.T) {
	if got := Ratio(6, 3); got != 2 {
		t.Errorf("Ratio(6, 3) = %v", got)
	}
	if got := Ratio(6, 0); got != 0 {
		t.Errorf("Ratio(6, 0) = %v, want 0", got)
	}
}
