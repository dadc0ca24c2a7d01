package stats

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
