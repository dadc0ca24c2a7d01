// Package ycsb reimplements the core of the Yahoo! Cloud Serving Benchmark
// for the simulated cluster: the key-choice distributions (uniform,
// zipfian, scrambled zipfian, latest), the operation
// mixer, and a closed-loop multi-threaded runner with target-throughput
// pacing — the same architecture as YCSB's CoreWorkload and client
// threads, §3 of the paper.
package ycsb

import (
	"math"
	"math/rand"
)

// Generator produces a stream of int64 values under some distribution.
type Generator interface {
	// Next draws the next value using rng.
	Next(rng *rand.Rand) int64
}

// Uniform generates integers uniformly in [Lo, Hi].
type Uniform struct {
	Lo, Hi int64
}

// Next implements Generator.
func (u Uniform) Next(rng *rand.Rand) int64 {
	return u.Lo + rng.Int63n(u.Hi-u.Lo+1)
}

// zipfConstant is YCSB's default skew.
const zipfConstant = 0.99

// Zipfian generates integers in [0, items) with a Zipfian distribution:
// item 0 most popular. It is a port of YCSB's ZipfianGenerator (Gray et
// al.'s algorithm), including incremental extension of the item count used
// by the latest distribution.
type Zipfian struct {
	items         int64
	theta         float64
	zeta2theta    float64
	alpha         float64
	zetan         float64
	countForZeta  int64
	eta           float64
	allowDecrease bool
}

// NewZipfian returns a zipfian generator over [0, items) with the default
// YCSB constant 0.99.
func NewZipfian(items int64) *Zipfian {
	z := &Zipfian{items: items, theta: zipfConstant}
	z.alpha = 1 / (1 - z.theta)
	z.zeta2theta = zetaStatic(2, z.theta)
	z.zetan = zetaStatic(items, z.theta)
	z.countForZeta = items
	z.eta = z.computeEta()
	return z
}

func (z *Zipfian) computeEta() float64 {
	return (1 - math.Pow(2/float64(z.items), 1-z.theta)) / (1 - z.zeta2theta/z.zetan)
}

// zetaStatic computes the zeta partial sum Σ 1/i^theta for i in [1, n].
func zetaStatic(n int64, theta float64) float64 {
	sum := 0.0
	for i := int64(1); i <= n; i++ {
		sum += 1 / math.Pow(float64(i), theta)
	}
	return sum
}

// NextN draws from a zipfian over [0, n), extending the cached zeta sum
// incrementally when n grows (the latest distribution relies on this).
func (z *Zipfian) NextN(rng *rand.Rand, n int64) int64 {
	if n < 1 {
		return 0
	}
	if n > z.countForZeta {
		for i := z.countForZeta + 1; i <= n; i++ {
			z.zetan += 1 / math.Pow(float64(i), z.theta)
		}
		z.countForZeta = n
		z.items = n
		z.eta = z.computeEta()
	} else if n < z.countForZeta {
		// Recompute from scratch (rare; YCSB warns about the cost).
		z.zetan = zetaStatic(n, z.theta)
		z.countForZeta = n
		z.items = n
		z.eta = z.computeEta()
	}
	u := rng.Float64()
	uz := u * z.zetan
	if uz < 1 {
		return 0
	}
	if uz < 1+math.Pow(0.5, z.theta) {
		return 1
	}
	return int64(float64(n) * math.Pow(z.eta*u-z.eta+1, z.alpha))
}

// Next implements Generator.
func (z *Zipfian) Next(rng *rand.Rand) int64 { return z.NextN(rng, z.items) }

// fnvScramble hashes v for the scrambled-zipfian spread.
func fnvScramble(v int64) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < 8; i++ {
		h ^= uint64(v >> (8 * i) & 0xff)
		h *= 1099511628211
	}
	return h
}

// ScrambledZipfian spreads a zipfian's popular items uniformly over the
// keyspace, so hot keys do not cluster on one node (YCSB's default request
// distribution and the fix for the paper's "local trap").
type ScrambledZipfian struct {
	items int64
	z     *Zipfian
}

// NewScrambledZipfian returns a scrambled zipfian over [0, items).
func NewScrambledZipfian(items int64) *ScrambledZipfian {
	return &ScrambledZipfian{items: items, z: NewZipfian(items)}
}

// Next implements Generator.
func (s *ScrambledZipfian) Next(rng *rand.Rand) int64 {
	return int64(fnvScramble(s.z.Next(rng)) % uint64(s.items))
}

// Counter hands out consecutive integers, tracking the newest; it drives
// insert key numbering and the latest distribution.
type Counter struct{ next int64 }

// Next implements Generator (rng unused).
func (c *Counter) Next(*rand.Rand) int64 {
	v := c.next
	c.next++
	return v
}

// AcknowledgedCounter issues consecutive integers like Counter but
// separately tracks which have been acknowledged (operation completed),
// exposing the highest value below which everything is acknowledged. The
// latest distribution reads against that limit so clients never target a
// key whose insert is still in flight — YCSB's
// AcknowledgedCounterGenerator.
type AcknowledgedCounter struct {
	Counter
	limit   int64 // everything < limit is acknowledged
	pending map[int64]bool
}

// NewAcknowledgedCounter starts issuing at start with everything below
// start considered acknowledged.
func NewAcknowledgedCounter(start int64) *AcknowledgedCounter {
	return &AcknowledgedCounter{
		Counter: Counter{next: start},
		limit:   start,
		pending: make(map[int64]bool),
	}
}

// Ack marks v complete and advances the acknowledged limit across any
// contiguous run it unblocks.
func (c *AcknowledgedCounter) Ack(v int64) {
	if v < c.limit {
		return
	}
	c.pending[v] = true
	for c.pending[c.limit] {
		delete(c.pending, c.limit)
		c.limit++
	}
}

// LastAcked returns the newest item number that is safe to read: all items
// up to and including it are acknowledged.
func (c *AcknowledgedCounter) LastAcked() int64 { return c.limit - 1 }

// Latest generates recently-inserted item numbers: a zipfian over the
// distance from the newest acknowledged item (YCSB's
// SkewedLatestGenerator over an AcknowledgedCounterGenerator). The typical
// use is the "read latest" feed-reading workload of Table 1.
type Latest struct {
	counter *AcknowledgedCounter
	z       *Zipfian
}

// NewLatest returns a latest generator following counter.
func NewLatest(counter *AcknowledgedCounter) *Latest {
	n := counter.LastAcked() + 1
	if n < 1 {
		n = 1
	}
	return &Latest{counter: counter, z: NewZipfian(n)}
}

// Next implements Generator.
func (l *Latest) Next(rng *rand.Rand) int64 {
	last := l.counter.LastAcked()
	if last < 0 {
		return 0
	}
	return last - l.z.NextN(rng, last+1)
}

// Discrete picks among weighted alternatives — the operation chooser.
type Discrete struct {
	values  []int64
	weights []float64
	total   float64
}

// Add registers value with the given weight.
func (d *Discrete) Add(weight float64, value int64) {
	if weight <= 0 {
		return
	}
	d.values = append(d.values, value)
	d.weights = append(d.weights, weight)
	d.total += weight
}

// Next implements Generator.
func (d *Discrete) Next(rng *rand.Rand) int64 {
	u := rng.Float64() * d.total
	for i, w := range d.weights {
		if u < w {
			return d.values[i]
		}
		u -= w
	}
	return d.values[len(d.values)-1]
}
