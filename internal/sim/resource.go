package sim

// Resource is a FIFO-queued server with fixed capacity: the building block
// for modeling CPUs, disks, and NICs. A process acquires a unit of
// capacity, holds it for a service time, and releases it; contention shows
// up as queueing delay in virtual time.
type Resource struct {
	k         *Kernel
	name      string
	parkLabel string // "resource:<name>", built once; Acquire parks with it
	capacity  int
	inUse     int
	queue     ring[*Proc]

	// statistics
	lastT     Time
	busyInt   int64 // ∫ inUse dt, in unit·nanoseconds
	served    int64 // completed Use calls, MeanWait's divisor
	waitTotal Duration
}

// NewResource returns a resource with the given capacity (units that can be
// held concurrently). capacity must be ≥ 1.
func NewResource(k *Kernel, name string, capacity int) *Resource {
	if capacity < 1 {
		panic("sim: resource capacity must be >= 1")
	}
	return &Resource{k: k, name: name, parkLabel: "resource:" + name, capacity: capacity, lastT: k.now}
}

//simlint:hotpath
func (r *Resource) accumulate() {
	dt := int64(r.k.now - r.lastT)
	r.busyInt += int64(r.inUse) * dt
	r.lastT = r.k.now
}

// Acquire blocks p until a capacity unit is available and takes it.
//
//simlint:hotpath
func (r *Resource) Acquire(p *Proc) {
	start := r.k.now
	r.accumulate()
	if r.inUse < r.capacity {
		r.inUse++
		return
	}
	r.queue.push(p)
	r.k.noteWaiting(p)
	p.park(r.parkLabel)
	// The releaser transferred its unit to us; inUse is already counted.
	r.waitTotal += r.k.now.Sub(start)
}

// Release returns a capacity unit. If processes are queued, the unit is
// handed directly to the head of the queue.
//
//simlint:hotpath
func (r *Resource) Release() {
	r.accumulate()
	if r.queue.len() > 0 {
		p := r.queue.pop()
		r.k.noteRunnable(p)
		r.k.schedule(r.k.now, p.wake)
		return
	}
	if r.inUse == 0 {
		r.panicIdleRelease()
	}
	r.inUse--
}

// panicIdleRelease reports a Release without a matching Acquire. Split out
// of Release so the hot path stays free of string concatenation; the
// coldpath mark keeps the interprocedural walk out of a path that ends
// the process anyway.
//
//simlint:coldpath
func (r *Resource) panicIdleRelease() {
	panic("sim: release of idle resource " + r.name)
}

// Use acquires the resource, holds it for the service duration, and
// releases it. This is the common "queue + serve" pattern.
func (r *Resource) Use(p *Proc, service Duration) {
	r.Acquire(p)
	p.Sleep(service)
	r.Release()
	r.served++
}

// UseTimed is Use, additionally returning the time p spent queued before
// service began. The tracing layer uses it to split queueing delay from
// service time without changing scheduling behavior.
func (r *Resource) UseTimed(p *Proc, service Duration) Duration {
	start := r.k.now
	r.Acquire(p)
	waited := r.k.now.Sub(start)
	p.Sleep(service)
	r.Release()
	r.served++
	return waited
}

// BusyTime returns the cumulative unit-seconds of capacity held since the
// resource was created (the integral of held units over time).
func (r *Resource) BusyTime() Duration {
	r.accumulate()
	return Duration(r.busyInt)
}

// MeanWait returns the average time Acquire callers spent queued.
func (r *Resource) MeanWait() Duration {
	if r.served == 0 {
		return 0
	}
	return r.waitTotal / Duration(r.served)
}
