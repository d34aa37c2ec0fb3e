package rdb

import (
	"sync"
	"sync/atomic"
	"time"

	"xpath2sql/internal/obs"
)

// Morsel-driven intra-operator parallelism: the probe side of a hash join or
// the delta of a fixpoint iteration is split into fixed-size morsels, worker
// goroutines claim morsels from a shared counter and scan them into private
// candidate buffers, and the single-threaded merge step then folds the
// buffers into the output relation *in morsel order* — so the tuple
// insertion order, the (F, T) dedup outcomes and every statistic are
// byte-identical to a serial run regardless of scheduling.
//
// Workers only read shared state (the build-side index, the context, the
// deadline); all mutation happens in the merge step on the operator's
// goroutine. Cancellation and the wall-clock limit are checked once per
// morsel, so a cancelled run abandons the scan within one morsel's work.

// morselRows is the number of probe rows per morsel. It is a variable so
// tests can force multi-morsel scans on small inputs.
var morselRows = 2048

// parWorkers returns how many workers a scan over n rows should use: never
// more than the configured parallelism, never more than the morsel count,
// and 1 when the input is too small to be worth fanning out.
func (e *Exec) parWorkers(n int) int {
	w := e.Parallelism
	if w < 2 || n < 2*morselRows {
		return 1
	}
	if m := (n + morselRows - 1) / morselRows; w > m {
		w = m
	}
	return w
}

// morselCheck enforces cancellation and the wall-clock budget from a worker
// goroutine. It reads only fields that are frozen while an operator runs
// (ctx, deadline, the statement stack), so it is safe to call concurrently.
func (e *Exec) morselCheck() error {
	if e.ctx != nil {
		if err := e.ctx.Err(); err != nil {
			return err
		}
	}
	if !e.deadline.IsZero() {
		if now := time.Now(); now.After(e.deadline) {
			return &obs.LimitError{
				Kind: obs.LimitTimeout, Stmt: e.curStmt(),
				Limit: int64(e.Limits.Timeout), Actual: int64(now.Sub(e.start)),
			}
		}
	}
	return nil
}

// scanMorsels runs scan over [0, n) split into morsels on the given number
// of workers and returns the per-morsel candidate buffers in morsel order.
// scan must be read-only with respect to the executor and its relations.
func (e *Exec) scanMorsels(n, workers int, scan func(lo, hi int, buf []row) []row) ([][]row, error) {
	m := (n + morselRows - 1) / morselRows
	bufs := make([][]row, m)
	var (
		next    atomic.Int64
		stop    atomic.Bool
		errMu   sync.Mutex
		firstEr error
		wg      sync.WaitGroup
	)
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= m || stop.Load() {
					return
				}
				if err := e.morselCheck(); err != nil {
					errMu.Lock()
					if firstEr == nil {
						firstEr = err
					}
					errMu.Unlock()
					stop.Store(true)
					return
				}
				lo := i * morselRows
				hi := lo + morselRows
				if hi > n {
					hi = n
				}
				bufs[i] = scan(lo, hi, nil)
			}
		}()
	}
	wg.Wait()
	if firstEr != nil {
		return nil, firstEr
	}
	e.Stats.Morsels += m
	return bufs, nil
}
