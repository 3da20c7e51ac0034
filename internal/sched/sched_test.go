package sched

import (
	"context"
	"errors"
	"runtime"
	"runtime/debug"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

func TestWorkers(t *testing.T) {
	for _, c := range []struct{ in, want int }{
		{1, 1}, {6, 6}, {-3, 1}, {0, runtime.GOMAXPROCS(0)},
	} {
		if got := Workers(c.in); got != c.want {
			t.Errorf("Workers(%d) = %d, want %d", c.in, got, c.want)
		}
	}
}

// TestRunRanges pins the partition: contiguous ranges of ceil(n/workers)
// jobs, worker w taking the w-th, every job exactly once.
func TestRunRanges(t *testing.T) {
	for _, c := range []struct{ workers, n int }{
		{1, 7}, {4, 0}, {4, 1}, {4, 3}, {4, 5}, {3, 9}, {8, 100}, {0, 4}, {-2, 4},
	} {
		w := max(c.workers, 1)
		chunk := (c.n + w - 1) / w
		owner := make([]atomic.Int32, c.n)
		for i := range owner {
			owner[i].Store(-1)
		}
		var calls atomic.Int32
		Run(c.workers, c.n, func(w, lo, hi int) {
			calls.Add(1)
			if lo != w*chunk || hi != min((w+1)*chunk, c.n) {
				t.Errorf("Run(%d, %d): worker %d got [%d, %d), chunk %d", c.workers, c.n, w, lo, hi, chunk)
			}
			for i := lo; i < hi; i++ {
				if !owner[i].CompareAndSwap(-1, int32(w)) {
					t.Errorf("Run(%d, %d): job %d ran twice", c.workers, c.n, i)
				}
			}
		})
		for i := range owner {
			if owner[i].Load() < 0 {
				t.Errorf("Run(%d, %d): job %d never ran", c.workers, c.n, i)
			}
		}
		if c.n == 0 && calls.Load() != 0 {
			t.Errorf("Run(%d, 0) called fn %d times", c.workers, calls.Load())
		}
	}
}

// TestRunSingleRangeOnCaller pins that a single range runs on the caller's
// goroutine, so its panic is the caller's own, unwrapped.
func TestRunSingleRangeOnCaller(t *testing.T) {
	for _, c := range []struct{ workers, n int }{{1, 5}, {4, 1}} {
		var stack string
		func() {
			defer func() {
				if p := recover(); p != "boom" {
					t.Errorf("Run(%d, %d): recovered %v, want the raw value", c.workers, c.n, p)
				}
			}()
			Run(c.workers, c.n, func(w, lo, hi int) {
				stack = string(debug.Stack())
				panic("boom")
			})
		}()
		if !strings.Contains(stack, "TestRunSingleRangeOnCaller") {
			t.Errorf("Run(%d, %d): the range did not run on the caller:\n%s", c.workers, c.n, stack)
		}
	}
}

// TestRunReraisesWorkerPanic pins that a panic in one of several workers
// reaches the caller: after every worker has returned, as a *Panic with
// the lowest-numbered panicking worker's value and stack.
func TestRunReraisesWorkerPanic(t *testing.T) {
	const workers = 4
	before := runtime.NumGoroutine()
	var returned atomic.Int32
	release := make(chan struct{})
	var got any
	func() {
		defer func() { got = recover() }()
		Run(workers, 8, func(w, lo, hi int) {
			defer returned.Add(1)
			switch w {
			case 1:
				<-release // panics last: the lowest-numbered panic still wins
				panicInWorkerOne()
			case 2:
				defer close(release)
				panic(errors.New("worker two"))
			case 3:
				time.Sleep(20 * time.Millisecond) // a slow worker Run must wait for
			}
		})
	}()
	if n := returned.Load(); n != workers {
		t.Fatalf("Run re-raised after %d of %d workers returned", n, workers)
	}
	p, ok := got.(*Panic)
	if !ok {
		t.Fatalf("recovered %T %v, want *Panic", got, got)
	}
	if p.Value != "worker one" {
		t.Errorf("Panic.Value = %v, want worker one's", p.Value)
	}
	if s := string(p.Stack); !strings.Contains(s, "panicInWorkerOne") {
		t.Errorf("Panic.Stack is not worker one's:\n%s", s)
	}
	if !strings.Contains(p.Error(), "worker one") || !strings.Contains(p.Error(), "panicInWorkerOne") {
		t.Errorf("Panic.Error() = %q lacks the value or the stack", p.Error())
	}

	// A *Panic from a nested Run passes through unwrapped.
	func() {
		defer func() { got = recover() }()
		Run(2, 2, func(w, lo, hi int) {
			if w == 1 {
				Run(2, 2, func(w, lo, hi int) {
					if w == 0 {
						panicInWorkerOne()
					}
				})
			}
		})
	}()
	if p, ok := got.(*Panic); !ok || p.Value != "worker one" || !strings.Contains(string(p.Stack), "panicInWorkerOne") {
		t.Errorf("nested Run re-raised %#v, want the inner worker's Panic", got)
	}

	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > before {
		t.Errorf("%d goroutines after Run, %d before", n, before)
	}
}

func panicInWorkerOne() { panic("worker one") }

func TestHardCancelAndExpired(t *testing.T) {
	if HardCancel(context.Background()) != nil || Expired(context.Background()) {
		t.Fatal("a live context reads as stopped")
	}
	canceled, cancel := context.WithCancel(context.Background())
	cancel()
	if !errors.Is(HardCancel(canceled), context.Canceled) || Expired(canceled) {
		t.Error("an outright cancel must be a hard cancel and not an expiry")
	}
	// A deadline in the past is expired even before its timer fires, and
	// never a hard cancel.
	past, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	if HardCancel(past) != nil || !Expired(past) {
		t.Error("an expired deadline must degrade, not cancel")
	}
}
