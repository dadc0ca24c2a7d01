package stats

import (
	"math/rand"
	"sort"
	"strings"
	"testing"
	"testing/quick"
	"time"
)

func TestHistogramEmpty(t *testing.T) {
	var h Histogram
	if h.Count() != 0 || h.Mean() != 0 || h.Percentile(50) != 0 {
		t.Fatal("empty histogram should be all zeros")
	}
}

func TestHistogramSingleValue(t *testing.T) {
	var h Histogram
	h.Record(5 * time.Millisecond)
	if h.Count() != 1 {
		t.Fatalf("count = %d", h.Count())
	}
	if got := h.Percentile(50); !within(got, 5*time.Millisecond, 0.05) {
		t.Fatalf("p50 = %v, want ~5ms", got)
	}
	if h.Min() != 5*time.Millisecond || h.Max() != 5*time.Millisecond {
		t.Fatalf("min/max = %v/%v", h.Min(), h.Max())
	}
}

func TestHistogramPercentilesAgainstExactRanks(t *testing.T) {
	var h Histogram
	rng := rand.New(rand.NewSource(7))
	var vals []time.Duration
	for i := 0; i < 10000; i++ {
		v := time.Duration(rng.Intn(50_000_000)) // up to 50ms
		vals = append(vals, v)
		h.Record(v)
	}
	sort.Slice(vals, func(i, j int) bool { return vals[i] < vals[j] })
	for _, p := range []float64{10, 50, 90, 99, 99.9} {
		exact := vals[int(p/100*float64(len(vals)))-0]
		got := h.Percentile(p)
		if !within(got, exact, 0.10) {
			t.Fatalf("p%.1f = %v, exact %v", p, got, exact)
		}
	}
}

func TestHistogramMeanExact(t *testing.T) {
	var h Histogram
	h.Record(1 * time.Millisecond)
	h.Record(3 * time.Millisecond)
	if h.Mean() != 2*time.Millisecond {
		t.Fatalf("mean = %v", h.Mean())
	}
}

func TestHistogramQuantizationErrorBounded(t *testing.T) {
	// Property: a recorded value's bucket midpoint is within ~3.2% (one
	// sub-bucket) of the value, for all values above the linear range.
	f := func(raw int64) bool {
		v := raw % (1 << 40)
		if v < 0 {
			v = -v
		}
		var h Histogram
		h.Record(time.Duration(v))
		got := h.Percentile(50)
		if v < 64 {
			return int64(got) == v // exact in the linear range
		}
		return within(got, time.Duration(v), 0.04)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestHistogramNegativeClampsToZero(t *testing.T) {
	var h Histogram
	h.Record(-time.Second)
	if h.Min() != 0 || h.Max() != 0 {
		t.Fatalf("min/max = %v/%v, want 0/0", h.Min(), h.Max())
	}
}

func within(got, want time.Duration, tol float64) bool {
	d := float64(got - want)
	if d < 0 {
		d = -d
	}
	base := float64(want)
	if base == 0 {
		return got == 0
	}
	return d/base <= tol
}

func TestTableRenderAlignsColumns(t *testing.T) {
	tb := NewTable("demo", "name", "value")
	tb.AddRow("a", 1)
	tb.AddRow("longer", 2.5)
	out := tb.String()
	if !strings.Contains(out, "demo") || !strings.Contains(out, "longer") {
		t.Fatalf("render:\n%s", out)
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 5 { // title, header, sep, 2 rows
		t.Fatalf("got %d lines:\n%s", len(lines), out)
	}
}

func TestTableCSVEscapes(t *testing.T) {
	tb := NewTable("", "a", "b")
	tb.AddRow(`x,y`, `he said "hi"`)
	var b strings.Builder
	tb.CSV(&b)
	if !strings.Contains(b.String(), `"x,y"`) || !strings.Contains(b.String(), `"he said ""hi"""`) {
		t.Fatalf("csv:\n%s", b.String())
	}
}

func TestFigureTableUnionOfXs(t *testing.T) {
	f := NewFigure("fig", "rf", "latency")
	a := f.AddSeries("hbase")
	b := f.AddSeries("cassandra")
	a.Add(1, 10)
	a.Add(2, 11)
	b.Add(2, 20)
	b.Add(3, 21)
	tbl := f.Table()
	if len(tbl.Rows) != 3 {
		t.Fatalf("rows = %v", tbl.Rows)
	}
}

// TestHistogramPercentileInterpolates: quantiles inside a single wide
// bucket move with p rather than all snapping to the bucket midpoint.
func TestHistogramPercentileInterpolates(t *testing.T) {
	var h Histogram
	lo := int64(1) << 20 // bucket width here is 2^15
	for k := int64(0); k < 32; k++ {
		h.Record(time.Duration(lo + k*1024))
	}
	p10, p50, p90 := h.Percentile(10), h.Percentile(50), h.Percentile(90)
	if !(p10 < p50 && p50 < p90) {
		t.Fatalf("percentiles do not increase through the bucket: p10=%v p50=%v p90=%v", p10, p50, p90)
	}
	if p10 < h.Min() || p90 > h.Max() {
		t.Fatalf("percentiles escape [min,max]: p10=%v p90=%v min=%v max=%v", p10, p90, h.Min(), h.Max())
	}
}
