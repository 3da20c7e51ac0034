package core

// Level-wise parallel scheduler shared by Phase 2 (sibling subproblem
// solves) and Phase 3 (sibling merges). RAHTM's hierarchy is embarrassingly
// parallel within a level — §III-C solves each 2^n-cluster subproblem
// independently and §III-D merges sibling blocks independently — so the
// scheduler groups a level's siblings by structural fingerprint, solves one
// representative per group on a bounded worker pool, and fans the result
// out through the sibling-reuse translation in sibling index order.
//
// Determinism rule: parallel runs produce byte-identical results to
// sequential ones. This holds because (a) each group's representative is
// its lowest-indexed sibling — exactly the sibling the sequential cache
// would have populated the entry from; (b) every solver invoked by a worker
// is internally deterministic for a fixed seed regardless of its own worker
// count; and (c) results are committed in sibling index order after the
// level completes, so stats do not depend on worker scheduling.

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"
)

// workerCount resolves a Parallelism setting: 0 means GOMAXPROCS, as in
// merge.Config, anything below 1 is clamped to sequential.
func workerCount(parallelism int) int {
	if parallelism == 0 {
		return runtime.GOMAXPROCS(0)
	}
	if parallelism < 1 {
		return 1
	}
	return parallelism
}

// siblingGroups partitions the siblings 0..n-1 of one level by fingerprint.
// rep[g] is the lowest-indexed sibling of group g; groupOf[i] is the group
// of sibling i. Groups are numbered in first-occurrence order. When
// disableReuse is set every sibling forms its own group, matching the
// sequential pipeline's behavior of solving each sibling independently.
func siblingGroups(n int, disableReuse bool, keyOf func(i int) uint64) (rep []int, groupOf []int) {
	groupOf = make([]int, n)
	if disableReuse {
		rep = make([]int, n)
		for i := range rep {
			rep[i] = i
			groupOf[i] = i
		}
		return rep, groupOf
	}
	byKey := make(map[uint64]int, n)
	for i := 0; i < n; i++ {
		key := keyOf(i)
		g, ok := byKey[key]
		if !ok {
			g = len(rep)
			byKey[key] = g
			rep = append(rep, i)
		}
		groupOf[i] = g
	}
	return rep, groupOf
}

// forEach runs fn(worker, i) for every i in [0, n) on at most `workers`
// goroutines, pulling indices from a shared counter. worker is the index of
// the goroutine running the call — stable per goroutine, so span recorders
// can lay jobs out on per-worker timelines. Hard cancellation stops
// dispatch of further indices and returns ctx's error; indices already
// running complete (their solvers poll the same context and bail quickly).
// With workers <= 1 it degenerates to a plain loop (worker 0) with a
// cancellation check per index — the fully sequential mode.
func forEach(ctx context.Context, workers, n int, fn func(worker, i int)) error {
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			if err := hardCancel(ctx); err != nil {
				return err
			}
			fn(0, i)
		}
		return nil
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n || hardCancel(ctx) != nil {
					return
				}
				fn(w, i)
			}
		}(w)
	}
	wg.Wait()
	return hardCancel(ctx)
}

// innerParallelism splits a worker budget between concurrently running
// groups: with fewer groups than workers each group's solver gets the
// leftover workers for its own internal pool (the root merge is the
// important case — one group, all workers).
func innerParallelism(workers, groups int) int {
	if groups < 1 {
		groups = 1
	}
	if groups > workers {
		return 1
	}
	inner := workers / groups
	if inner < 1 {
		inner = 1
	}
	return inner
}
