package merge

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"testing"
	"time"

	"rahtm/internal/graph"
	"rahtm/internal/telemetry"
	"rahtm/internal/topology"
)

// denseBlocks builds n multi-task leaf blocks over a dense random graph so
// the merge has real scoring work to do.
func denseBlocks(t *testing.T, seed int64) (*graph.Comm, []*Block, []int) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	const kids, per = 8, 8 // 8 children of 8 tasks each
	b := graph.New(kids * per)
	for i := 0; i < b.N(); i++ {
		for j := 0; j < b.N(); j++ {
			if i != j && rng.Float64() < 0.3 {
				b.AddTraffic(i, j, 1+9*rng.Float64())
			}
		}
	}
	g := b.Build()
	blocks := make([]*Block, kids)
	childPos := make([]int, kids)
	shape := []int{2, 2, 2}
	for c := 0; c < kids; c++ {
		tasks := make([]int, per)
		local := make(topology.Mapping, per)
		for k := 0; k < per; k++ {
			tasks[k] = c*per + k
			local[k] = k
		}
		blocks[c] = NewLeafBlock(tasks, shape, local, 0)
		childPos[c] = c
	}
	return g, blocks, childPos
}

func TestMergeCtxAlreadyCanceled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	g, blocks, childPos := denseBlocks(t, 1)
	_, err := MergeCtx(ctx, g, blocks, []int{2, 2, 2}, childPos, Config{}, math.Inf(1))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

func TestMergeCtxCancelMidRun(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	g, blocks, childPos := denseBlocks(t, 2)
	errc := make(chan error, 1)
	go func() {
		_, err := MergeCtx(ctx, g, blocks, []int{2, 2, 2}, childPos, Config{BeamWidth: 512}, math.Inf(1))
		errc <- err
	}()
	cancel()
	select {
	case err := <-errc:
		if err != nil && !errors.Is(err, context.Canceled) {
			t.Fatalf("err = %v, want context.Canceled or nil", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("merge did not return within 10s of cancellation")
	}
}

func TestMergeCtxDeadlineDegrades(t *testing.T) {
	// An already-expired deadline forces the greedy completion path from
	// the very first step; the result must still be a valid block.
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	g, blocks, childPos := denseBlocks(t, 3)
	out, err := MergeCtx(ctx, g, blocks, []int{2, 2, 2}, childPos, Config{}, math.Inf(1))
	if err != nil {
		t.Fatalf("deadline must degrade, not fail: %v", err)
	}
	if !out.Degraded {
		t.Fatal("Degraded not set")
	}
	if len(out.Candidates) == 0 {
		t.Fatal("no candidates in degraded block")
	}
	best := out.Candidates[0]
	if err := best.Local.Validate(64, true); err != nil {
		t.Fatalf("degraded merge produced invalid placement: %v", err)
	}
}

func TestMergeCtxDeadlineHonorsPins(t *testing.T) {
	// The degraded greedy completion must still place each child at its
	// pinned cube position when nothing conflicts.
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	b := graph.New(4)
	b.AddTraffic(0, 1, 1)
	g := b.Build()
	shape := []int{1, 1}
	blocks := make([]*Block, 4)
	for i := range blocks {
		blocks[i] = NewLeafBlock([]int{i}, shape, topology.Mapping{0}, 0)
	}
	childPos := []int{3, 2, 1, 0}
	out, err := MergeCtx(ctx, g, blocks, []int{2, 2}, childPos, Config{}, math.Inf(1))
	if err != nil {
		t.Fatal(err)
	}
	if !out.Degraded {
		t.Fatal("Degraded not set")
	}
	best := out.Candidates[0]
	for task := 0; task < 4; task++ {
		if best.Local[task] != 3-task {
			t.Fatalf("task %d at %d, want %d (mapping %v)", task, best.Local[task], 3-task, best.Local)
		}
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

func TestMergeCtxLateTimerDegrades(t *testing.T) {
	// The merge must read the deadline off the clock: a merge that only
	// asked ctx.Err() would run to the end undegraded, and one whose
	// scorers only polled ctx.Done would still order every child pair,
	// since with one worker nothing lets a late timer fire meanwhile.
	g, blocks, childPos := denseBlocks(t, 3)
	reg := telemetry.NewRegistry()
	ctx := newLateTimerCtx()
	ctx.Context = telemetry.WithScope(ctx.Context, &telemetry.Scope{Reg: reg})
	out, err := MergeCtx(ctx, g, blocks, []int{2, 2, 2}, childPos, Config{Parallelism: 1}, math.Inf(1))
	if err != nil {
		t.Fatalf("deadline must degrade, not fail: %v", err)
	}
	if !out.Degraded {
		t.Fatal("Degraded not set")
	}
	if err := out.Candidates[0].Local.Validate(64, true); err != nil {
		t.Fatalf("degraded merge produced invalid placement: %v", err)
	}
	if n := reg.Snapshot().Counter(telemetry.CtrSymmetryEvals); n != 0 {
		t.Errorf("the ordering evaluated %d orientation pairs after the deadline", n)
	}
}
