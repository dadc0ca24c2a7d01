package stats

import (
	"math"
	"testing"
)

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

func TestGeoMeanInterval(t *testing.T) {
	ln2 := math.Ln2
	for _, c := range []struct {
		ratios     []float64
		gm, lo, hi float64
	}{
		// Logs ln 2 and 3 ln 2: mean 2 ln 2, s = √2 ln 2, s/√n = ln 2,
		// t(0.975, 1) = 12.706.
		{[]float64{2, 8}, 4, 4 * math.Exp(-12.706*ln2), 4 * math.Exp(12.706*ln2)},
		// Logs 0, 0, 2 ln 2, 2 ln 2: mean ln 2, s = 2 ln 2/√3, s/√n =
		// ln 2/√3, t(0.975, 3) = 3.182.
		{[]float64{1, 4, 1, 4}, 2, 2 * math.Exp(-3.182*ln2/math.Sqrt(3)), 2 * math.Exp(3.182*ln2/math.Sqrt(3))},
		// Zero variance: the interval is the point.
		{[]float64{1.5, 1.5, 1.5}, 1.5, 1.5, 1.5},
		// One ratio is its own mean, with no interval.
		{[]float64{3}, 3, 0, 0},
		// Nothing from no ratio, nor with a ratio ≤ 0.
		{nil, 0, 0, 0},
		{[]float64{0}, 0, 0, 0},
		{[]float64{2, 0, 3}, 0, 0, 0},
		{[]float64{2, -1}, 0, 0, 0},
	} {
		gm, lo, hi := GeoMeanInterval(c.ratios)
		for _, v := range [][2]float64{{gm, c.gm}, {lo, c.lo}, {hi, c.hi}} {
			if math.Abs(v[0]-v[1]) > 1e-9*math.Max(1, v[1]) {
				t.Errorf("GeoMeanInterval(%v) = %v, %v, %v, want %v, %v, %v", c.ratios, gm, lo, hi, c.gm, c.lo, c.hi)
				break
			}
		}
	}
}

func TestTQuantile95(t *testing.T) {
	for df, want := range map[int]float64{1: 12.706, 7: 2.365, 30: 2.042, 31: 2.042, 1000: 2.042} {
		if got := tQuantile95(df); got != want {
			t.Errorf("tQuantile95(%d) = %v, want %v", df, got, want)
		}
	}
}
