// Package core implements the paper's benchmarking methodology — the
// primary contribution being reproduced. It deploys the simulated HBase
// and Cassandra clusters on the paper's testbed topology (16 machines, 15
// servers + 1 client, single rack) and drives the three benchmark
// families:
//
//   - the micro benchmark for replication (Fig. 1): atomic
//     update/read/insert/scan latency versus replication factor 1–6,
//   - the stress benchmark for replication (Fig. 2): the five Table 1
//     workloads at full speed versus replication factor 1–6, and
//   - the stress benchmark for consistency (Fig. 3): runtime versus target
//     throughput for consistency levels ONE, QUORUM, and write-ALL in
//     Cassandra at replication factor 3.
//
// Experiments are deterministic given Options.Seed.
package core

import (
	"time"

	"cloudbench/internal/cluster"
	"cloudbench/internal/kv"
)

// ServerNodes is the paper's testbed, the same at every profile: 15
// database machines plus one client machine (which also hosts the HBase
// master). No replication factor can exceed it.
const ServerNodes = 15

// warmupFraction is the share of each measured phase's operations run as
// warmup before measurement starts.
const warmupFraction = 0.1

// Options controls the scale of every experiment and the testbed it runs
// on; what a cell deploys at that scale is its backend (cell.go).
type Options struct {
	Seed int64

	// Parallelism bounds the sweep scheduler's worker pool: how many
	// independent sweep cells (each a self-contained single-threaded
	// simulation) run concurrently on host CPUs. 0 means one worker per
	// available CPU (runtime.GOMAXPROCS). Results are bit-identical for
	// every value — cells derive their seeds from Seed alone and are
	// reassembled in canonical sweep order.
	Parallelism int

	Cluster cluster.Config

	// Scale. The paper uses 1 B tiny records (micro) and 100 M × 1 KB
	// records (stress); the simulation scales these down (see the
	// substitution table in DESIGN.md §1).
	MicroRecords  int64
	StressRecords int64
	MicroOps      int64
	StressOps     int64

	// Client shape (§3.1: enough threads that client-side queueing does
	// not pollute latency).
	Threads int

	// MicroThreads keeps the micro benchmark unsaturated (§4.1 "we keep
	// the load of the testbed in unsaturated state by limiting the
	// number of concurrence requests"): a closed loop of this many
	// client threads.
	MicroThreads int

	// CacheBytes is the per-node block cache, meant to hold the working
	// set after warmup as the paper's dataset fit its testbed's aggregate
	// page cache. It holds only a table that does not grow: Fig. 3's
	// read-latest phases each insert about 4k records, and from phase to
	// phase more of its reads go to disk (ROADMAP.md, open item 1).
	CacheBytes int64

	// ReplicationFactors is the sweep for Fig. 1 and Fig. 2.
	ReplicationFactors []int

	// Fig3TargetFractions are the target-throughput sweep points,
	// expressed as fractions of the measured CL=ONE capacity per
	// workload.
	Fig3TargetFractions []float64

	// GC models JVM stop-the-world pauses on the server nodes of every
	// cell whose backend leaves them on.
	GC cluster.GCConfig

	// SpectrumReplIntervals is the object store's anti-entropy period
	// sweep for the replication-spectrum experiment, ascending. The first
	// (fastest) interval anchors the cross-backend comparison cells; the
	// rest extend the interval sweep and the fault cells.
	SpectrumReplIntervals []time.Duration
}

// QuickOptions returns replbench's default scale: every mechanism
// exercised, tens of seconds of wall clock.
//
// Calibration notes (regime of the paper's testbed):
//   - CPUOpCost is raised to the effective per-request CPU of a 2013 JVM
//     database (thrift/RPC serialization, stage hand-offs, GC pressure):
//     the cluster's knee is CPU, not the simulated disks.
//   - The block caches are meant to hold the dataset after warmup, as the
//     paper's 100 M × 1 KB rows fit the 480 GB of aggregate page cache.
//     They do only while a table does not grow: on Fig. 3's read-latest
//     the table grows from 10k to 30k records past the 4 MB cache and
//     its disks go from 16 % to 68 % busy (ROADMAP.md, open item 1).
func QuickOptions() Options {
	ccfg := cluster.DefaultConfig()
	// Fewer, slower effective execution slots than raw hardware threads:
	// staged Java servers serialize on stage pools and locks, which keeps
	// per-node capacity the same but makes queue waits (and therefore
	// ack-count differences between consistency levels) visible.
	ccfg.CPUSlots = 8
	ccfg.CPUOpCost = 200 * time.Microsecond
	// Replica-side applies cost as much as client requests: mutation
	// verbs traverse the same staged JVM machinery (this is what makes
	// higher consistency levels wait on meaningfully slow acks).
	ccfg.InternalOpCost = 100 * time.Microsecond
	ccfg.ScanRowCost = 10 * time.Microsecond
	return Options{
		Seed:                1,
		Cluster:             ccfg,
		MicroRecords:        30_000,
		StressRecords:       6_000,
		MicroOps:            21_000,
		StressOps:           20_000,
		Threads:             256,
		MicroThreads:        110,
		CacheBytes:          4 << 20,
		ReplicationFactors:  []int{1, 2, 3, 4, 5, 6},
		Fig3TargetFractions: []float64{0.25, 0.5, 0.75, 1.0, 1.25},
		GC: cluster.GCConfig{
			// Scaled relative to the default so the tails are heavy
			// enough to differentiate ack-count waits. A measured window
			// does not average them out: a 20k-op stress phase covers
			// about 0.2 s of simulated time and holds about 6 pauses
			// across the 15 servers (ROADMAP.md, open item 1).
			MeanInterval: 500 * time.Millisecond,
			MeanPause:    25 * time.Millisecond,
			MinPause:     time.Millisecond,
		},
		SpectrumReplIntervals: []time.Duration{
			200 * time.Millisecond, time.Second, 5 * time.Second,
		},
	}
}

// SmokeOptions returns a minimal scale for CI smoke runs and -short tests:
// every subsystem is still exercised (replication, repair, GC pauses, the
// spectrum's fault cells) but each sweep cell finishes in well under a
// second of wall clock. Shapes at this scale are noisy; it exists to prove the
// machinery end to end, not to reproduce the paper's curves.
func SmokeOptions() Options {
	o := QuickOptions()
	o.MicroRecords = 2_000
	o.MicroOps = 2_000
	o.StressRecords = 800
	o.StressOps = 2_500
	o.Threads = 48
	o.MicroThreads = 24
	o.ReplicationFactors = []int{1, 3}
	o.Fig3TargetFractions = []float64{0.5, 1.0}
	o.SpectrumReplIntervals = []time.Duration{200 * time.Millisecond, 2 * time.Second}
	return o
}

// PaperOptions returns a larger scale closer to the paper's stress shape;
// minutes of wall clock.
func PaperOptions() Options {
	o := QuickOptions()
	o.MicroRecords = 100_000
	o.StressRecords = 30_000
	o.MicroOps = 20_000
	o.StressOps = 30_000
	o.CacheBytes = 16 << 20
	return o
}

// anchorRF picks the replication factor of the cells an experiment pins
// rather than sweeps (the spectrum's Cassandra fault cell and its
// cross-backend comparison): the paper's recommended 3 when the sweep includes it,
// otherwise the largest swept factor, so the swept counterpart cell always
// exists.
func anchorRF(o Options) int {
	for _, f := range o.ReplicationFactors {
		if f == 3 {
			return 3
		}
	}
	return o.ReplicationFactors[len(o.ReplicationFactors)-1]
}

// levels returns the Fig. 3 consistency configurations in paper order:
// ONE, QUORUM, and "write ALL" (write ALL / read ONE, §2).
func levels() []ConsistencySetting {
	return []ConsistencySetting{
		{Name: "ONE", Read: kv.One, Write: kv.One},
		{Name: "QUORUM", Read: kv.Quorum, Write: kv.Quorum},
		{Name: "writeALL", Read: kv.One, Write: kv.All},
	}
}

// ConsistencySetting names a (read, write) consistency pair.
type ConsistencySetting struct {
	Name  string
	Read  kv.ConsistencyLevel
	Write kv.ConsistencyLevel
}

// repeatsOne reports whether lv, not being ONE, asks ONE's read and write
// ack counts at rf (QUORUM and writeALL at RF 1). A cell at such a level
// reruns ONE's cell row for row, so the level sweeps leave it out.
func (lv ConsistencySetting) repeatsOne(rf int) bool {
	one := levels()[0]
	return lv != one && lv.Read.Required(rf) == one.Read.Required(rf) &&
		lv.Write.Required(rf) == one.Write.Required(rf)
}

// quiesce is the settle time between benchmark phases.
const quiesce = 2 * time.Second
