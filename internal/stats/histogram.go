// Package stats provides the measurement side of the benchmark: log-bucketed
// latency histograms, percentile estimation, throughput accounting, and the
// table/series renderers used to print paper-style results.
package stats

import (
	"fmt"
	"math/bits"
	"time"
)

const (
	subBucketBits  = 5 // 32 linear sub-buckets per power-of-two octave
	subBuckets     = 1 << subBucketBits
	octaves        = 40 // covers up to ~2^39 µs-scale units; plenty for ns latencies
	histogramSlots = octaves * subBuckets
)

// Histogram is a log-linear latency histogram: values are bucketed into
// power-of-two octaves with 32 linear sub-buckets each, giving a worst-case
// quantization error of about 3%. The zero value is ready to use.
type Histogram struct {
	counts [histogramSlots]int64
	count  int64
	sum    int64
	min    int64
	max    int64
}

// slotFor maps a non-negative value to its bucket index.
func slotFor(v int64) int {
	if v < 0 {
		v = 0
	}
	// Values below subBuckets land in the first octave linearly.
	if v < subBuckets {
		return int(v)
	}
	octave := bits.Len64(uint64(v)) - subBucketBits // ≥ 1
	sub := v >> (octave - 1) & (subBuckets - 1)
	slot := octave*subBuckets + int(sub)
	if slot >= histogramSlots {
		slot = histogramSlots - 1
	}
	return slot
}

// slotBounds returns the inclusive lower bound and width of a bucket.
func slotBounds(slot int) (lo, width int64) {
	if slot < subBuckets {
		return int64(slot), 1
	}
	octave := slot / subBuckets
	sub := int64(slot % subBuckets)
	return (int64(subBuckets) + sub) << (octave - 1), int64(1) << (octave - 1)
}

// Record adds one observation of d.
func (h *Histogram) Record(d time.Duration) {
	v := int64(d)
	if v < 0 {
		v = 0
	}
	h.counts[slotFor(v)]++
	h.count++
	h.sum += v
	if h.count == 1 || v < h.min {
		h.min = v
	}
	if v > h.max {
		h.max = v
	}
}

// Count returns the number of recorded observations.
func (h *Histogram) Count() int64 { return h.count }

// Mean returns the mean of recorded observations.
func (h *Histogram) Mean() time.Duration {
	if h.count == 0 {
		return 0
	}
	return time.Duration(h.sum / h.count)
}

// Min returns the smallest recorded observation.
func (h *Histogram) Min() time.Duration { return time.Duration(h.min) }

// Max returns the largest recorded observation.
func (h *Histogram) Max() time.Duration { return time.Duration(h.max) }

// Sum returns the sum of all recorded observations.
func (h *Histogram) Sum() time.Duration { return time.Duration(h.sum) }

// Percentile returns the value at quantile p in [0,100]. The fractional
// rank is located by cumulative count and interpolated linearly within
// its bucket, so estimates move smoothly with p instead of snapping to
// bucket midpoints; results are clamped to the observed [min, max]. It
// returns 0 for an empty histogram.
func (h *Histogram) Percentile(p float64) time.Duration {
	if h.count == 0 {
		return 0
	}
	if p < 0 {
		p = 0
	}
	if p > 100 {
		p = 100
	}
	target := p / 100 * float64(h.count)
	if target < 1 {
		target = 1
	}
	var seen int64
	for i, c := range h.counts {
		if c == 0 {
			continue
		}
		if float64(seen+c) >= target {
			lo, width := slotBounds(i)
			f := (target - float64(seen)) / float64(c)
			v := lo + int64(f*float64(width))
			if v < h.min {
				v = h.min
			}
			if v > h.max {
				v = h.max
			}
			return time.Duration(v)
		}
		seen += c
	}
	return time.Duration(h.max)
}

// Reset clears the histogram.
func (h *Histogram) Reset() { *h = Histogram{} }

// Summary is a compact snapshot of a histogram.
type Summary struct {
	Count             int64
	Mean, Min, Max    time.Duration
	P50, P95, P99     time.Duration
	P999              time.Duration
	TotalObservedTime time.Duration
}

// Summarize computes a Summary from the histogram.
func (h *Histogram) Summarize() Summary {
	return Summary{
		Count:             h.count,
		Mean:              h.Mean(),
		Min:               h.Min(),
		Max:               h.Max(),
		P50:               h.Percentile(50),
		P95:               h.Percentile(95),
		P99:               h.Percentile(99),
		P999:              h.Percentile(99.9),
		TotalObservedTime: h.Sum(),
	}
}

// String renders the summary on one line.
func (s Summary) String() string {
	return fmt.Sprintf("n=%d mean=%v p50=%v p95=%v p99=%v max=%v",
		s.Count, s.Mean.Round(time.Microsecond), s.P50.Round(time.Microsecond),
		s.P95.Round(time.Microsecond), s.P99.Round(time.Microsecond),
		s.Max.Round(time.Microsecond))
}
