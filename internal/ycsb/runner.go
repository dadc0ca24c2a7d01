package ycsb

import (
	"time"

	"cloudbench/internal/consistency"
	"cloudbench/internal/kv"
	"cloudbench/internal/sim"
	"cloudbench/internal/stats"
	"cloudbench/internal/trace"
)

// RunConfig controls one benchmark run phase.
type RunConfig struct {
	// Threads is the number of closed-loop client threads. The paper's
	// §3.1 warns it must be large enough not to bottleneck the client.
	Threads int
	// Ops is the number of operations to execute.
	Ops int64
	// TargetThroughput is the aggregate offered load in ops/second; 0
	// runs unthrottled (each thread issues as fast as responses return).
	TargetThroughput float64
	// WarmupFraction of Ops is executed before measurement starts, to
	// absorb the cold-start effects §6 complains about.
	WarmupFraction float64
	// Oracle, when non-nil, is the consistency oracle already attached to
	// the database under test. The runner aligns the oracle's measurement
	// window with its own (BeginMeasure when warmup ends) and snapshots
	// the report into Result.Consistency.
	Oracle *consistency.Oracle
	// Tracer, when non-nil, is the request tracer already attached to the
	// database under test. The runner opens a root span per operation and
	// aligns the tracer's measurement window with its own.
	//
	//simlint:hook
	Tracer *trace.Tracer
	// Events fire mid-run by operation progress: each Fn runs exactly
	// once, in simulation context, when the completed-operation count
	// reaches AfterOps. Entries must be in ascending AfterOps order.
	// Scheduling faults by progress rather than wall time keeps them
	// inside the run phase at every profile scale, since closed-loop run
	// duration varies with throughput.
	Events []RunEvent
}

// RunEvent is one progress-triggered callback; see RunConfig.Events.
type RunEvent struct {
	AfterOps int64
	Fn       func()
}

// Result is the outcome of a run phase.
type Result struct {
	Workload string
	Threads  int
	Target   float64

	// MeasuredOps and Elapsed cover the post-warmup window.
	MeasuredOps int64
	Elapsed     time.Duration
	// Throughput is the runtime throughput in ops/second.
	Throughput float64

	Overall *stats.Histogram
	// Intended measures latency from each operation's *scheduled* start
	// under throttling (YCSB's coordinated-omission-corrected "intended"
	// latency): when too few client threads carry the offered load, the
	// backlog shows up here even though Overall stays flat — the §3.1
	// client-thread effect.
	Intended *stats.Histogram
	PerOp    map[OpType]*stats.Histogram
	Errors   int64
	// NotFound counts reads of keys that were not visible — stale reads
	// under weak consistency land here when the key is brand new.
	NotFound int64
	// Consistency is the oracle's report over the measurement window,
	// when RunConfig.Oracle was set.
	Consistency *consistency.Report
}

// MeanLatency returns the overall mean latency.
func (r *Result) MeanLatency() time.Duration { return r.Overall.Mean() }

// ClientFactory builds one database client per thread; threads must not
// share clients so coordinator round-robin and caches behave per
// connection.
type ClientFactory func() kv.Client

// Load inserts records [from, to) with the given number of threads,
// blocking the driver process until the load completes. It returns the
// number of failed inserts.
func Load(driver *sim.Proc, newClient ClientFactory, w *Workload, threads int, from, to int64) int64 {
	if threads < 1 {
		threads = 1
	}
	k := driver.Kernel()
	var errs int64
	next := from
	procs := make([]*sim.Proc, 0, threads)
	for t := 0; t < threads; t++ {
		cl := newClient()
		procs = append(procs, k.Spawn("ycsb-load", func(p *sim.Proc) {
			for {
				if next >= to {
					return
				}
				n := next
				next++
				op := w.LoadOp(p.Rand(), n)
				if err := cl.Insert(p, op.Key, op.Record); err != nil {
					errs++
				}
			}
		}))
	}
	for _, p := range procs {
		p.Done().Await(driver)
	}
	return errs
}

// Run executes one transaction phase, blocking the driver process, and
// returns its Result.
func Run(driver *sim.Proc, newClient ClientFactory, w *Workload, cfg RunConfig) Result {
	if cfg.Threads < 1 {
		cfg.Threads = 1
	}
	k := driver.Kernel()
	res := newResult(w.Spec.Name, cfg.Threads, cfg.TargetThroughput)

	warmupOps := int64(cfg.WarmupFraction * float64(cfg.Ops))
	var issued, completed int64
	var measureStart sim.Time
	measuring := warmupOps == 0
	start := k.Now()
	if measuring {
		measureStart = start
		if cfg.Oracle != nil {
			cfg.Oracle.BeginMeasure(start)
		}
		if cfg.Tracer != nil {
			cfg.Tracer.BeginMeasure(start)
		}
	}

	var interval time.Duration
	if cfg.TargetThroughput > 0 {
		interval = time.Duration(float64(cfg.Threads) / cfg.TargetThroughput * float64(time.Second))
	}
	nextEvent := 0

	procs := make([]*sim.Proc, 0, cfg.Threads)
	for t := 0; t < cfg.Threads; t++ {
		t := t
		cl := newClient()
		procs = append(procs, k.Spawn("ycsb-thread", func(p *sim.Proc) {
			// Stagger thread start so paced threads do not fire in
			// lockstep.
			next := start
			if interval > 0 {
				next = start.Add(interval * time.Duration(t) / time.Duration(cfg.Threads))
				if next.Sub(p.Now()) > 0 {
					p.Sleep(next.Sub(p.Now()))
				}
			}
			for {
				if issued >= cfg.Ops {
					return
				}
				issued++
				intendedStart := p.Now()
				if interval > 0 {
					intendedStart = next
					if wait := next.Sub(p.Now()); wait > 0 {
						p.Sleep(wait)
					}
					next = next.Add(interval)
				}
				op := w.NextOp(p.Rand())
				opStart := p.Now()
				if cfg.Tracer != nil {
					cfg.Tracer.StartOp(p, classOf(op.Type))
				}
				err := execute(p, cl, op)
				if cfg.Tracer != nil {
					cfg.Tracer.EndOp(p)
				}
				end := p.Now()
				w.Ack(op)
				lat := end.Sub(opStart)
				completed++
				for nextEvent < len(cfg.Events) && completed >= cfg.Events[nextEvent].AfterOps {
					if fn := cfg.Events[nextEvent].Fn; fn != nil {
						fn()
					}
					nextEvent++
				}
				if !measuring && completed >= warmupOps {
					measuring = true
					measureStart = p.Now()
					if cfg.Oracle != nil {
						cfg.Oracle.BeginMeasure(measureStart)
					}
					if cfg.Tracer != nil {
						cfg.Tracer.BeginMeasure(measureStart)
					}
				} else if measuring {
					res.record(op.Type, lat, end.Sub(intendedStart), err)
				}
			}
		}))
	}
	for _, p := range procs {
		p.Done().Await(driver)
	}
	res.finish(measureStart, k.Now())
	if cfg.Oracle != nil {
		rep := cfg.Oracle.Report()
		res.Consistency = &rep
	}
	return res
}

// SessionConfig controls a session-churn phase: instead of Threads
// long-lived closed-loop threads, the driver spawns Sessions short-lived
// client processes over the run — at most Live alive at any instant —
// each executing OpsPerSession operations against a pooled client and
// exiting. This is the megascale shape: the paper-scale "a million
// clients" is a churn of arrivals, not a million concurrent threads, and
// process arrival/departure is exactly what stresses the kernel's proc
// pooling and the shard engine's window loop.
type SessionConfig struct {
	// Sessions is the total number of client processes spawned over the
	// phase.
	Sessions int64
	// Live bounds concurrent sessions; new arrivals wait for a free
	// client slot. Defaults to 1.
	Live int
	// OpsPerSession is each session's operation count. Defaults to 1.
	OpsPerSession int64
	// WarmupFraction of the total operations runs before measurement
	// starts, as in RunConfig.
	WarmupFraction float64
}

// RunSessions executes a session-churn phase, blocking the driver process,
// and returns its Result. Clients are built once per live slot and handed
// from session to session through a queue, so the phase allocates O(Live)
// clients no matter how many sessions churn through.
func RunSessions(driver *sim.Proc, newClient ClientFactory, w *Workload, cfg SessionConfig) Result {
	if cfg.Live < 1 {
		cfg.Live = 1
	}
	if cfg.OpsPerSession < 1 {
		cfg.OpsPerSession = 1
	}
	k := driver.Kernel()
	res := newResult(w.Spec.Name, cfg.Live, 0)

	totalOps := cfg.Sessions * cfg.OpsPerSession
	warmupOps := int64(cfg.WarmupFraction * float64(totalOps))
	var completed int64
	measuring := warmupOps == 0
	measureStart := k.Now()

	free := sim.NewQueue[kv.Client](k)
	for i := 0; i < cfg.Live; i++ {
		free.Push(newClient())
	}
	for s := int64(0); s < cfg.Sessions; s++ {
		cl := free.Pop(driver) // admission control: wait for a slot
		k.Go("ycsb-session", func(p *sim.Proc) {
			for op := int64(0); op < cfg.OpsPerSession; op++ {
				o := w.NextOp(p.Rand())
				opStart := p.Now()
				err := execute(p, cl, o)
				lat := p.Now().Sub(opStart)
				w.Ack(o)
				completed++
				if !measuring && completed >= warmupOps {
					measuring = true
					measureStart = p.Now()
				} else if measuring {
					res.record(o.Type, lat, lat, err)
				}
			}
			free.Push(cl)
		})
	}
	// Drain: every slot back in the queue means every session exited.
	for i := 0; i < cfg.Live; i++ {
		free.Pop(driver)
	}
	res.finish(measureStart, k.Now())
	return res
}

// newResult returns an empty Result of a phase of workload on threads
// clients offered target ops/s, with a histogram for every operation type.
func newResult(workload string, threads int, target float64) Result {
	res := Result{
		Workload: workload,
		Threads:  threads,
		Target:   target,
		Overall:  &stats.Histogram{},
		Intended: &stats.Histogram{},
		PerOp:    make(map[OpType]*stats.Histogram),
	}
	for _, t := range []OpType{OpRead, OpUpdate, OpInsert, OpScan, OpReadModifyWrite} {
		res.PerOp[t] = &stats.Histogram{}
	}
	return res
}

// record counts one operation completed inside the measurement window:
// lat from its issue, intended from its scheduled start.
func (r *Result) record(t OpType, lat, intended time.Duration, err error) {
	r.MeasuredOps++
	r.Overall.Record(lat)
	r.Intended.Record(intended)
	r.PerOp[t].Record(lat)
	if err == kv.ErrNotFound {
		r.NotFound++
	} else if err != nil {
		r.Errors++
	}
}

// finish closes the measurement window [start, end]: Elapsed and
// Throughput.
func (r *Result) finish(start, end sim.Time) {
	r.Elapsed = end.Sub(start)
	if r.Elapsed > 0 {
		r.Throughput = float64(r.MeasuredOps) / r.Elapsed.Seconds()
	}
}

// classOf maps an operation type to its trace class.
func classOf(t OpType) trace.OpClass {
	switch t {
	case OpRead:
		return trace.ClassRead
	case OpUpdate:
		return trace.ClassUpdate
	case OpInsert:
		return trace.ClassInsert
	case OpScan:
		return trace.ClassScan
	case OpReadModifyWrite:
		return trace.ClassReadModifyWrite
	default:
		return trace.ClassBackground
	}
}

// execute performs one operation against the client. ErrNotFound on reads
// is reported to the caller but is not a client error (it is how stale or
// racing reads manifest). It runs once per YCSB operation — millions of
// times per sweep cell — hence the hotpath marker.
//
//simlint:hotpath
func execute(p *sim.Proc, cl kv.Client, op Op) error {
	switch op.Type {
	case OpRead:
		_, err := cl.Read(p, op.Key, nil)
		return err
	case OpUpdate:
		return cl.Update(p, op.Key, op.Record)
	case OpInsert:
		return cl.Insert(p, op.Key, op.Record)
	case OpScan:
		_, err := cl.Scan(p, op.Key, op.ScanLen, nil)
		return err
	case OpReadModifyWrite:
		if _, err := cl.Read(p, op.Key, nil); err != nil && err != kv.ErrNotFound {
			return err
		}
		return cl.Update(p, op.Key, op.Record)
	default:
		return nil
	}
}
