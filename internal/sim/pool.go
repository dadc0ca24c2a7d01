package sim

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// RunCells executes n independent cells on a bounded pool of workers and
// returns their results in cell order. It is the one worker pool of the
// repository: a sweep runs its cells on it once per experiment, and a
// ShardGroup runs its active shards on it once per window.
//
// workers ≤ 0 means one worker per available CPU. The calling goroutine is
// one of the workers, so one worker runs every cell in line, in index
// order, and starts no goroutine. Cells are claimed in index order. The
// first cell error stops further cells from being claimed; cells already
// claimed run to completion. Because claims are in index order, every cell
// below the first erroring one completes, so the lowest-indexed recorded
// error — the one returned — is a deterministic function of the cells,
// independent of host scheduling. A panic inside a cell (e.g. a
// simulation invariant violation) cancels the rest the same way and is
// re-raised on the calling goroutine once every worker is back; when
// several cells panic, the lowest index's panic is the one raised, for the
// same reason. No goroutine outlives the call.
func RunCells[T any](workers, n int, run func(i int) (T, error)) ([]T, error) {
	out := make([]T, n)
	var (
		next     atomic.Int64 // next unclaimed cell index
		canceled atomic.Bool  // set on the first error or panic; unstarted cells skip
		errs     = make([]error, n)
		panics   = make([]any, n)
		wg       sync.WaitGroup
	)
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	next.Store(-1)
	work := func() {
		for !canceled.Load() {
			i := int(next.Add(1))
			if i >= n {
				return
			}
			func() {
				defer func() {
					if r := recover(); r != nil {
						panics[i] = r
						canceled.Store(true)
					}
				}()
				v, err := run(i)
				if err != nil {
					errs[i] = err
					canceled.Store(true)
					return
				}
				out[i] = v
			}()
		}
	}
	for w := 1; w < min(workers, n); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			work()
		}()
	}
	work()
	wg.Wait()
	for _, p := range panics {
		if p != nil {
			panic(p)
		}
	}
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}
