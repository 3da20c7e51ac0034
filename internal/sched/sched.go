// Package sched is the pipeline's one scheduler: how many workers a
// Parallelism setting means (Workers), how a range of jobs fans out over
// them (Run), and when a context stops them (HardCancel, Expired). core's
// sibling solves and merges and merge's scorers all fan out through Run.
package sched

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"time"
)

// Workers resolves a Parallelism setting: 0 means GOMAXPROCS, anything
// below 1 means 1.
func Workers(parallelism int) int {
	if parallelism == 0 {
		return runtime.GOMAXPROCS(0)
	}
	return max(parallelism, 1)
}

// HardCancel returns ctx's error when it was canceled outright. Deadline
// expiry returns nil: the pipeline degrades to best-so-far instead.
func HardCancel(ctx context.Context) error {
	if err := ctx.Err(); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		return err
	}
	return nil
}

// Expired reports whether ctx's deadline has passed. It reads the clock as
// well as ctx.Err(): the timer behind a deadline can fire late on a loaded
// host, and a solver that finishes before it fires must still report the
// overrun.
func Expired(ctx context.Context) bool {
	if errors.Is(ctx.Err(), context.DeadlineExceeded) {
		return true
	}
	d, ok := ctx.Deadline()
	return ok && !time.Now().Before(d)
}

// Panic is a worker's panic, re-raised by Run on its caller.
type Panic struct {
	Value any    // what the worker panicked with
	Stack []byte // the worker's stack at the panic
}

// Error gives the value and the worker's stack, so that a re-raised panic
// nothing recovers still shows where the worker failed.
func (p *Panic) Error() string {
	return fmt.Sprintf("%v\n\npanicked in a pipeline worker:\n%s", p.Value, p.Stack)
}

// Run calls fn(w, lo, hi) over contiguous ranges covering [0, n): with
// chunk = ceil(n/workers), worker w takes [w·chunk, min((w+1)·chunk, n)),
// so a job's worker depends only on n and workers (below 1 counts as 1).
// A single range runs on the caller's goroutine. Otherwise each range runs
// on its own goroutine; Run waits for all of them and then re-raises the
// lowest-numbered worker's panic, if any, as a *Panic with that worker's
// stack. A *Panic from a nested Run passes through unchanged.
func Run(workers, n int, fn func(w, lo, hi int)) {
	chunk := (n + max(workers, 1) - 1) / max(workers, 1)
	if chunk >= n {
		if n > 0 {
			fn(0, 0, n)
		}
		return
	}
	var (
		wg     sync.WaitGroup
		mu     sync.Mutex
		first  *Panic
		firstW int
	)
	for w := 0; w*chunk < n; w++ {
		wg.Add(1)
		go func() {
			defer func() {
				if v := recover(); v != nil {
					p, ok := v.(*Panic)
					if !ok {
						p = &Panic{Value: v, Stack: debug.Stack()}
					}
					mu.Lock()
					if first == nil || w < firstW {
						first, firstW = p, w
					}
					mu.Unlock()
				}
				wg.Done()
			}()
			fn(w, w*chunk, min((w+1)*chunk, n))
		}()
	}
	wg.Wait()
	if first != nil {
		panic(first)
	}
}
