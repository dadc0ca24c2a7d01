package storage

import (
	"cloudbench/internal/sim"
)

// WAL is a write-ahead log with group commit: while one batch is being
// written to the device, later appends accumulate and are committed
// together in the next batch, amortizing device latency under load exactly
// as HBase's HLog and Cassandra's commit log do.
type WAL struct {
	k   *sim.Kernel
	log AppendLog

	pendingBytes int
	// waiters collects the appends of the next batch; spare is the slice the
	// batch on the device gave up, so the two trade places batch by batch and
	// neither is grown again once it has held the largest batch.
	waiters, spare []*sim.Future[struct{}]
	// free holds the futures of appends that have returned, for the next
	// ones: a steady load waits without allocating.
	free     []*sim.Future[struct{}]
	flushing bool
	flush    func(*sim.Proc) // flushLoop, bound once: starting a flusher allocates nothing

	// Appends counts individual Append calls; Batches counts device
	// writes. Batches ≤ Appends, and the gap measures group commit.
	Appends, Batches int64
	BytesLogged      int64
}

// NewWAL returns a WAL writing batches to log.
func NewWAL(k *sim.Kernel, log AppendLog) *WAL {
	w := &WAL{k: k, log: log}
	w.flush = w.flushLoop
	return w
}

// Append durably logs bytes, blocking p until the batch containing this
// append reaches the device (HBase's per-edit WAL sync).
func (w *WAL) Append(p *sim.Proc, bytes int) {
	w.Appends++
	w.pendingBytes += bytes
	f := sim.Take(&w.free)
	if f == nil {
		f = new(sim.Future[struct{}])
	}
	f.Init(w.k)
	w.waiters = append(w.waiters, f)
	w.ensureFlusher()
	f.Await(p)
	// The flusher dropped f when it set it, and p was its only waiter.
	w.free = append(w.free, f)
}

// AppendAsync logs bytes without blocking the caller: the write is acked
// from memory and a background batch carries it to the device (Cassandra's
// commitlog_sync: periodic). The device load is still paid, just off the
// latency path.
func (w *WAL) AppendAsync(bytes int) {
	w.Appends++
	w.pendingBytes += bytes
	w.ensureFlusher()
}

func (w *WAL) ensureFlusher() {
	if !w.flushing {
		w.flushing = true
		w.k.Go("wal-flush", w.flush)
	}
}

func (w *WAL) flushLoop(p *sim.Proc) {
	for w.pendingBytes > 0 || len(w.waiters) > 0 {
		bytes := w.pendingBytes
		waiters := w.waiters
		w.pendingBytes = 0
		w.waiters = w.spare[:0]
		w.log.Append(p, bytes)
		w.Batches++
		w.BytesLogged += int64(bytes)
		for i, f := range waiters {
			f.Set(struct{}{})
			waiters[i] = nil
		}
		w.spare = waiters
	}
	w.flushing = false
}
