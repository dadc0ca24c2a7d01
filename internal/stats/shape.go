package stats

import "math"

// The estimators a finding judges a claim's shape with. Each Findings
// method in internal/core reduces its rows to a series and asks one of
// these; none keeps its own min/max or neighbour loop.

// Spread returns max/min of vals: 1 for a flat series, growing with the
// gap between its extremes. It returns 0 when vals is empty or its minimum
// is not positive, so a spread verdict must require Spread > 0.
func Spread(vals ...float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	lo, hi := vals[0], vals[0]
	for _, v := range vals[1:] {
		lo, hi = min(lo, v), max(hi, v)
	}
	if lo <= 0 {
		return 0
	}
	return hi / lo
}

// Increasing reports whether vals rises strictly at every step. A series
// of fewer than two points shows no rise and is not increasing.
func Increasing(vals []float64) bool {
	if len(vals) < 2 {
		return false
	}
	for i := 1; i < len(vals); i++ {
		if vals[i] <= vals[i-1] {
			return false
		}
	}
	return true
}

// Ratio returns hi/lo, or 0 when lo is 0.
func Ratio(hi, lo float64) float64 {
	if lo == 0 {
		return 0
	}
	return hi / lo
}

// GeoMeanInterval returns the geometric mean of ratios and its 95 %
// Student-t confidence interval: exp(m ± t·s/√n), where m and s are the
// mean and sample standard deviation of the ratios' logs and t is the
// two-sided 95 % quantile at n−1 degrees of freedom. A growth claim over
// seeds holds when lo > 1. One ratio gives itself and no interval (lo and
// hi zero). It returns zeros for no ratios or for any ratio that is not
// positive, so a growth verdict fails on them.
func GeoMeanInterval(ratios []float64) (gm, lo, hi float64) {
	n := len(ratios)
	if n == 0 {
		return 0, 0, 0
	}
	var sum float64
	for _, r := range ratios {
		if r <= 0 {
			return 0, 0, 0
		}
		sum += math.Log(r)
	}
	mean := sum / float64(n)
	if n == 1 {
		return ratios[0], 0, 0
	}
	var ss float64
	for _, r := range ratios {
		d := math.Log(r) - mean
		ss += d * d
	}
	half := tQuantile95(n-1) * math.Sqrt(ss/float64(n-1)/float64(n))
	return math.Exp(mean), math.Exp(mean - half), math.Exp(mean + half)
}

// t95 holds the two-sided 95 % Student-t quantiles, t(0.975, df), for df
// 1–30.
var t95 = [...]float64{
	12.706, 4.303, 3.182, 2.776, 2.571, 2.447, 2.365, 2.306, 2.262, 2.228,
	2.201, 2.179, 2.160, 2.145, 2.131, 2.120, 2.110, 2.101, 2.093, 2.086,
	2.080, 2.074, 2.069, 2.064, 2.060, 2.056, 2.052, 2.048, 2.045, 2.042,
}

// tQuantile95 returns t(0.975, df) for df ≥ 1. Past the table it returns
// df 30's quantile, less than 5 % above the true one, so the
// interval errs wide.
func tQuantile95(df int) float64 {
	return t95[min(df, len(t95))-1]
}
