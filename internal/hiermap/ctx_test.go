package hiermap

import (
	"context"
	"errors"
	"math/rand"
	"testing"
	"time"

	"rahtm/internal/graph"
	"rahtm/internal/topology"
)

func randomGraph(n int, seed int64) *graph.Comm {
	rng := rand.New(rand.NewSource(seed))
	g := graph.New(n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i != j && rng.Float64() < 0.4 {
				g.AddTraffic(i, j, 1+9*rng.Float64())
			}
		}
	}
	return g.Build()
}

// cubeMesh is the 2-ary mesh of n = 2^b positions.
func cubeMesh(n int) *topology.Torus {
	shape := []int{}
	for n > 1 {
		shape = append(shape, 2)
		n /= 2
	}
	return topology.NewMesh(shape...)
}

func TestMapCtxAlreadyCanceled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, m := range []Method{Exhaustive, Anneal, MILP} {
		_, err := MapCtx(ctx, randomGraph(8, 1), cubeMesh(8), Config{Method: m})
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("%v: err = %v, want context.Canceled", m, err)
		}
	}
}

func TestAnnealCtxCancelMidRun(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	g := randomGraph(32, 2)
	errc := make(chan error, 1)
	go func() {
		// A huge iteration budget would run for a long time uncancelled.
		_, err := MapCtx(ctx, g, cubeMesh(32), Config{
			Method: Anneal, AnnealIters: 200_000_000, AnnealRestarts: 1,
		})
		errc <- err
	}()
	time.Sleep(10 * time.Millisecond)
	cancel()
	select {
	case err := <-errc:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("err = %v, want context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("anneal did not abort within 5s of cancellation")
	}
}

func TestAnnealCtxDeadlineDegrades(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	g := randomGraph(32, 3)
	start := time.Now()
	res, err := MapCtx(ctx, g, cubeMesh(32), Config{
		Method: Anneal, AnnealIters: 200_000_000, AnnealRestarts: 1,
	})
	if err != nil {
		t.Fatalf("deadline must degrade, not fail: %v", err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("degraded anneal took %v", elapsed)
	}
	if !res.Degraded {
		t.Fatal("Degraded not set")
	}
	if err := res.Mapping.Validate(32, true); err != nil {
		t.Fatalf("degraded mapping invalid: %v", err)
	}
}

func TestExhaustiveCtxDeadlineDegrades(t *testing.T) {
	// 8 nodes = 40320 placements; an already-expired deadline stops the
	// enumeration at the first poll but still yields a valid placement.
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	res, err := MapCtx(ctx, randomGraph(8, 4), cubeMesh(8), Config{Method: Exhaustive})
	if err != nil {
		t.Fatalf("deadline must degrade, not fail: %v", err)
	}
	if !res.Degraded {
		t.Fatal("Degraded not set")
	}
	if res.Proved {
		t.Fatal("a truncated enumeration must not claim optimality")
	}
	if err := res.Mapping.Validate(8, true); err != nil {
		t.Fatalf("degraded mapping invalid: %v", err)
	}
}

func TestMILPCtxDeadlineFallsBackToAnneal(t *testing.T) {
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	res, err := MapCtx(ctx, randomGraph(8, 5), cubeMesh(8), Config{Method: MILP})
	if err != nil {
		t.Fatalf("deadline must degrade, not fail: %v", err)
	}
	if !res.Degraded {
		t.Fatal("Degraded not set")
	}
	if err := res.Mapping.Validate(8, true); err != nil {
		t.Fatalf("degraded mapping invalid: %v", err)
	}
}

// lateTimerCtx is a context whose deadline has passed but whose timer has
// not fired yet, as on a loaded host: Err is nil and Done never closes.
type lateTimerCtx struct {
	context.Context
	done chan struct{}
}

func newLateTimerCtx() lateTimerCtx {
	return lateTimerCtx{Context: context.Background(), done: make(chan struct{})}
}

func (c lateTimerCtx) Deadline() (time.Time, bool) { return time.Now().Add(-time.Second), true }
func (c lateTimerCtx) Done() <-chan struct{}       { return c.done }
func (c lateTimerCtx) Err() error                  { return nil }

func TestMapCtxLateTimerDegrades(t *testing.T) {
	// Every solver must read the deadline off the clock: one that only
	// asked ctx.Err() would run to the end undegraded.
	for _, tc := range []struct {
		method Method
		n      int
	}{{Exhaustive, 8}, {Anneal, 32}, {MILP, 8}} {
		res, err := MapCtx(newLateTimerCtx(), randomGraph(tc.n, 6), cubeMesh(tc.n), Config{Method: tc.method})
		if err != nil {
			t.Fatalf("%v: deadline must degrade, not fail: %v", tc.method, err)
		}
		if !res.Degraded {
			t.Fatalf("%v: Degraded not set", tc.method)
		}
		if err := res.Mapping.Validate(tc.n, true); err != nil {
			t.Fatalf("%v: degraded mapping invalid: %v", tc.method, err)
		}
	}
}
