package core

// Level-wise parallel scheduler shared by Phase 2 (sibling subproblem
// solves) and Phase 3 (sibling merges). RAHTM's hierarchy is embarrassingly
// parallel within a level — §III-C solves each 2^n-cluster subproblem
// independently and §III-D merges sibling blocks independently — so the
// scheduler groups a level's siblings by structural fingerprint, solves one
// representative per group on sched.Run's workers, and fans the result out
// through the sibling-reuse translation in sibling index order.
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

	"rahtm/internal/sched"
)

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

// forEach runs fn(worker, i) for every i in [0, n) over sched.Run's
// contiguous ranges; worker is the index of the range's worker, so span
// recorders can lay jobs out on per-worker timelines. Hard cancellation
// stops each worker before its next index and returns ctx's error; jobs
// already running complete (their solvers poll the same context and bail
// quickly).
func forEach(ctx context.Context, workers, n int, fn func(worker, i int)) error {
	sched.Run(workers, n, func(w, lo, hi int) {
		for i := lo; i < hi && sched.HardCancel(ctx) == nil; i++ {
			fn(w, i)
		}
	})
	return sched.HardCancel(ctx)
}

// innerParallelism splits a worker budget between concurrently running
// groups: with fewer groups than workers each group's solver gets the
// leftover workers for its own internal pool (the root merge is the
// important case — one group, all workers).
func innerParallelism(workers, groups int) int {
	return max(workers/max(groups, 1), 1)
}
