// Package core orchestrates the full RAHTM pipeline: Phase 1 clustering
// (concentration + per-level 2^n coarsening), Phase 2 top-down hierarchical
// mapping of cluster graphs onto 2-ary n-cubes, and Phase 3 bottom-up
// rotation/reorientation merging with top-N pruning.
//
// The entry point is MapPartitionedCtx, which takes a context, a
// process-level communication graph, a torus/mesh topology, and a
// configuration, and produces a process-to-node mapping that minimizes the
// maximum channel load under the minimal-adaptive routing approximation.
// Power-of-two topologies go straight to MapProcessesCtx; others are split
// into power-of-two boxes first.
package core

import (
	"context"
	"fmt"
	"math"
	"sort"
	"sync/atomic"
	"time"

	"rahtm/internal/cluster"
	"rahtm/internal/graph"
	"rahtm/internal/hiermap"
	"rahtm/internal/merge"
	"rahtm/internal/routing"
	"rahtm/internal/sched"
	"rahtm/internal/telemetry"
	"rahtm/internal/topology"
)

// Scheduler reuse counters on the process-wide registry, flushed once per
// level (never from per-sibling hot paths).
var (
	ctrSubproblems    = telemetry.Default.Counter(telemetry.CtrSubproblems)
	ctrSubproblemHits = telemetry.Default.Counter(telemetry.CtrSubproblemHits)
	ctrMerges         = telemetry.Default.Counter(telemetry.CtrMerges)
	ctrMergeHits      = telemetry.Default.Counter(telemetry.CtrMergeHits)
)

// Config controls the pipeline. The zero value is usable for power-of-two
// topologies with concentration factor 1.
type Config struct {
	// Concentration is the number of processes per node (0 = 1). The
	// process count must equal topology nodes x concentration.
	Concentration int
	// GridDims is the logical process-grid layout used by the tiling
	// clusterer (row-major). Nil falls back to greedy clustering.
	GridDims []int
	// Leaf configures the Phase 2 subproblem solver.
	Leaf hiermap.Config
	// Merge configures the Phase 3 beam search.
	Merge merge.Config
	// DisableSiblingReuse turns off the symmetry optimization that copies
	// solutions across subproblems with identical communication structure.
	DisableSiblingReuse bool
	// Parallelism bounds the workers of the level-wise Phase 2/3 scheduler,
	// resolved by sched.Workers (0 = runtime.GOMAXPROCS(0), 1 or less =
	// fully sequential). The worker budget a level's sibling merges leave
	// over goes to each merge's beam scorers. Results are identical for
	// every setting; see DESIGN.md "Concurrency architecture".
	Parallelism int
}

// PhaseStats reports where pipeline time went.
type PhaseStats struct {
	ClusterTime time.Duration
	MapTime     time.Duration
	MergeTime   time.Duration

	// Parallelism is the effective worker count of the level-wise
	// scheduler: sched.Workers(Config.Parallelism).
	Parallelism int
	// MapWorkTime and MergeWorkTime accumulate solver wall time across
	// Phase 2 / Phase 3 workers; with W workers they can exceed MapTime /
	// MergeTime by up to a factor of W.
	MapWorkTime   time.Duration
	MergeWorkTime time.Duration

	Subproblems    int // Phase 2 cube mappings required
	SubproblemsHit int // solved via the sibling-reuse cache
	Merges         int // Phase 3 merges required
	MergesHit      int // reused via the cache
	TileShapes     [][]int
	ClusterQuality float64 // fraction of volume made node-local by Phase 1
	LeafMethod     hiermap.Method
	// CandidatesKept is the size of the root beam: the root states at or
	// below the identity order's MCL bar, 0 when the bar stopped the root
	// merge.
	CandidatesKept int
	// DefaultFallback is set when the identity order of the node-level
	// tasks (task i on node i) beat every searched candidate and was
	// returned instead. It compares against the identity order of RAHTM's
	// own clustered node tasks, not against the process-level default
	// mapper (rank p on node p/conc), which can still do better on some
	// instances; on the 512-process rung of the scale ladder RAHTM reads
	// 2.000 against that mapper's 4.000.
	DefaultFallback bool
	// Degraded is set when the context deadline expired mid-pipeline and at
	// least one subproblem or merge returned a best-so-far result instead of
	// completing its full search. The mapping is still valid.
	Degraded bool
}

// MapParallelism returns Phase 2's effective parallelism — the average
// number of busy workers, MapWorkTime/MapTime. It is bounded by
// Parallelism (up to timing jitter) and equals ~1 for sequential runs.
// Zero when the phase recorded no wall time.
func (s PhaseStats) MapParallelism() float64 {
	if s.MapTime <= 0 {
		return 0
	}
	return float64(s.MapWorkTime) / float64(s.MapTime)
}

// MergeParallelism returns Phase 3's effective parallelism,
// MergeWorkTime/MergeTime; see MapParallelism.
func (s PhaseStats) MergeParallelism() float64 {
	if s.MergeTime <= 0 {
		return 0
	}
	return float64(s.MergeWorkTime) / float64(s.MergeTime)
}

// Result is the pipeline output. It keeps no graph: callers hold the
// process graph they passed in, and a result that outlives its solve
// stays about the size of its mappings.
type Result struct {
	// ProcToNode maps each process rank to a topology node: the node
	// NodeMapping gives the process's node-level task.
	ProcToNode topology.Mapping
	// NodeMapping maps node-level tasks (post-concentration clusters) to
	// topology nodes; it is a permutation of the nodes.
	NodeMapping topology.Mapping
	// MCL is the maximum channel load of NodeMapping on the real topology
	// under the uniform minimal-path model.
	MCL float64
	// Stats describes the work done.
	Stats PhaseStats

	// nodeTask inverts NodeMapping (node -> node-level task), so a result
	// keeps one int per node instead of one per process.
	nodeTask []int
}

// ProcTask returns the node-level task (post-concentration cluster) of a
// process rank. It reads ProcToNode: the task is the one NodeMapping
// places on the process's node, so ProcToNode must be left as returned.
func (r *Result) ProcTask(p int) int { return r.nodeTask[r.ProcToNode[p]] }

// place fills ProcToNode from the final NodeMapping and procToTask
// (process rank -> node-level task), and keeps NodeMapping's inverse for
// ProcTask instead of procToTask.
func (r *Result) place(procToTask []int) {
	r.ProcToNode = make(topology.Mapping, len(procToTask))
	for p, task := range procToTask {
		r.ProcToNode[p] = r.NodeMapping[task]
	}
	r.nodeTask = make([]int, len(r.NodeMapping))
	for task, node := range r.NodeMapping {
		r.nodeTask[node] = task
	}
}

// MapProcessesCtx runs RAHTM end to end under a context. Hard cancellation
// (ctx canceled outright) aborts promptly with ctx.Err(); an expired
// deadline degrades gracefully — each remaining solver returns its
// best-so-far valid result and Result.Stats.Degraded is set.
//
// The pipeline is the only span emitter: every phase envelope and
// scheduler job is reported, complete, to the observer of the telemetry
// scope on ctx (telemetry.Scope.Span; a no-op without one).
func MapProcessesCtx(ctx context.Context, proc *graph.Comm, t *topology.Torus, cfg Config) (*Result, error) {
	if err := sched.HardCancel(ctx); err != nil {
		return nil, err
	}
	scope := telemetry.ScopeFrom(ctx)
	h, err := topology.NewHierarchy(t)
	if err != nil {
		return nil, err
	}
	L := h.NumLevels()
	res := &Result{}

	// ---- Phase 1: clustering -------------------------------------------
	start := time.Now()
	c1, quality, err := concentrate(proc, t, cfg)
	if err != nil {
		return nil, err
	}
	nodeGraph, procToTask, gridDims := c1.Coarse, c1.Assign, c1.GridDims
	res.Stats.ClusterQuality = quality
	if cfg.Concentration > 1 {
		res.Stats.TileShapes = append(res.Stats.TileShapes, c1.TileShape)
	}

	// Per-level coarsening, bottom-up: graphs[d] is the communication graph
	// over depth-d blocks (graphs[L] = node tasks, graphs[0] = one vertex).
	graphs := make([]*graph.Comm, L+1)
	members := make([][][]int, L) // members[d][parent] = depth-(d+1) ids
	graphs[L] = nodeGraph
	for d := L - 1; d >= 0; d-- {
		group := h.CubeSize(d)
		c, err := cluster.Auto(graphs[d+1], gridDims, group)
		if err != nil {
			return nil, fmt.Errorf("core: level %d clustering: %w", d, err)
		}
		gridDims = c.GridDims
		res.Stats.TileShapes = append(res.Stats.TileShapes, c.TileShape)
		graphs[d] = c.Coarse
		members[d] = make([][]int, c.NumClusters)
		for v, cl := range c.Assign {
			members[d][cl] = append(members[d][cl], v)
		}
		for _, m := range members[d] {
			sort.Ints(m)
		}
	}
	res.Stats.ClusterTime = time.Since(start)
	scope.Span(phaseSpan(telemetry.PhaseCluster, res.Stats.ClusterTime), start)

	// ---- Phase 2: top-down cube mapping --------------------------------
	// Within a level every sibling subproblem is independent (§III-C), so
	// the level-wise scheduler groups siblings by the same structural
	// fingerprint the sequential sibling-reuse cache keyed on, solves one
	// representative per group on a bounded worker pool, and fans results
	// out in sibling index order — byte-identical to the sequential run.
	workers := sched.Workers(cfg.Parallelism)
	res.Stats.Parallelism = workers
	start = time.Now()
	// pins[d][entity] = position of the depth-(d+1) entity within its
	// parent's CubeShape(d) cube.
	pins := make([][]int, L)
	var mapWork atomic.Int64 // cumulative solver nanoseconds across workers
	for d := 0; d < L; d++ {
		prepStart := time.Now()
		count := entityCount(h, d+1)
		pins[d] = make([]int, count)
		parents := members[d]
		locals := make([]*graph.Comm, len(parents))
		keys := make([]uint64, len(parents))
		for parent, kids := range parents {
			locals[parent], _ = graphs[d+1].InducedSubgraph(kids)
			keys[parent] = locals[parent].StructuralHash() ^ uint64(d)<<56
		}
		rep, groupOf := siblingGroups(len(parents), cfg.DisableSiblingReuse, func(i int) uint64 {
			return keys[i]
		})
		scope.Span(telemetry.Span{Name: "prepare", Phase: telemetry.PhaseMap, Worker: -1, Level: d,
			Jobs: len(rep), Dur: time.Since(prepStart)}, prepStart)
		type solveResult struct {
			res *hiermap.Result
			err error
		}
		solved := make([]solveResult, len(rep))
		// The root cube is a 2-ary torus of double-wide links when any
		// machine dimension wraps (§III-C); every cube below it is a plain
		// mesh.
		cube := topology.NewMesh(h.CubeShape(d)...)
		if d == 0 && anyWrap(t) {
			cube = topology.NewTorus(h.CubeShape(d)...)
		}
		if err := forEach(ctx, workers, len(rep), func(worker, gi int) {
			t0 := time.Now()
			r, err := hiermap.MapCtx(ctx, locals[rep[gi]], cube, cfg.Leaf)
			elapsed := time.Since(t0)
			mapWork.Add(int64(elapsed))
			sp := telemetry.Span{Name: "solve", Phase: telemetry.PhaseMap, Worker: worker, Level: d,
				Hash: keys[rep[gi]], Dur: elapsed}
			if err == nil {
				sp.MCL, sp.Proved = r.MCL, r.Proved
			}
			scope.Span(sp, t0)
			solved[gi] = solveResult{res: r, err: err}
		}); err != nil {
			return nil, err
		}
		for _, s := range solved {
			if s.err != nil {
				return nil, fmt.Errorf("core: phase 2 level %d: %w", d, s.err)
			}
		}
		// Commit in sibling index order: representatives count as solves,
		// the rest as cache hits, exactly like the sequential pipeline.
		fanStart := time.Now()
		levelHits := 0
		for parent, kids := range parents {
			gi := groupOf[parent]
			r := solved[gi].res
			res.Stats.Subproblems++
			if parent != rep[gi] {
				res.Stats.SubproblemsHit++
				levelHits++
			} else {
				res.Stats.LeafMethod = r.Method
				if r.Degraded {
					res.Stats.Degraded = true
				}
			}
			for j, kid := range kids {
				pins[d][kid] = r.Mapping[j]
			}
		}
		scope.Span(telemetry.Span{Name: "fanout", Phase: telemetry.PhaseMap, Worker: -1, Level: d,
			Jobs: len(parents), Dur: time.Since(fanStart)}, fanStart)
		scope.CounterOr(telemetry.CtrSubproblems, ctrSubproblems).Add(int64(len(parents)))    //rahtm:allow(telemetrybatch): flushes once per level, already batched from the fan-out loop
		scope.CounterOr(telemetry.CtrSubproblemHits, ctrSubproblemHits).Add(int64(levelHits)) //rahtm:allow(telemetrybatch): flushes once per level, already batched from the fan-out loop
	}
	res.Stats.MapTime = time.Since(start)
	res.Stats.MapWorkTime = time.Duration(mapWork.Load())
	scope.Span(phaseSpan(telemetry.PhaseMap, res.Stats.MapTime), start)

	// The identity (default) node order is the mapping the result must beat
	// (Final assembly). Its MCL bars the root merge, which scores on the
	// machine's channel space: a merged state above the bar can only lead
	// to a mapping the identity beats, so the merge keeps none and stops
	// once none is left. The margin covers the different summation order of
	// the MCL recomputed below (DESIGN.md §11, "The default-order bar").
	idMCL := routing.MaxChannelLoad(t, nodeGraph, topology.Identity(t.N()), routing.MinimalAdaptive{}.WithScope(scope))
	bar := idMCL * (1 + 0x1p-20)

	// ---- Phase 3: bottom-up merging ------------------------------------
	start = time.Now()
	// Leaf blocks (depth L-1) come straight from Phase 2.
	leavesStart := time.Now()
	blocks := make([]*merge.Block, len(members[L-1]))
	leafShape := h.CubeShape(L - 1)
	leafMesh := topology.NewMesh(leafShape...)
	leafAlg := routing.MinimalAdaptive{}.WithScope(scope)
	for i, kids := range members[L-1] {
		local := make(topology.Mapping, len(kids))
		for j, kid := range kids {
			local[j] = pins[L-1][kid]
		}
		sub, _ := nodeGraph.InducedSubgraph(kids)
		mcl := routing.MaxChannelLoad(leafMesh, sub, local, leafAlg)
		blocks[i] = merge.NewLeafBlock(kids, leafShape, local, mcl)
	}
	scope.Span(telemetry.Span{Name: "leaves", Phase: telemetry.PhaseMerge, Worker: -1, Level: L - 1,
		Dur: time.Since(leavesStart)}, leavesStart)
	// Sibling merges within a level are independent (§III-D): dedupe them
	// by mergeKey, merge one representative per group concurrently, and
	// translate the rest. The worker budget not consumed by concurrent
	// sibling merges flows into each merge's internal beam scorers
	// (innerParallelism), so the root merge (a single group) still uses
	// every worker.
	var mergeWork atomic.Int64
	for d := L - 2; d >= 0; d-- {
		prepStart := time.Now()
		parents := members[d]
		next := make([]*merge.Block, len(parents))
		childSets := make([][]*merge.Block, len(parents))
		posSets := make([][]int, len(parents))
		keys := make([]uint64, len(parents))
		for i, kids := range parents {
			children := make([]*merge.Block, len(kids))
			childPos := make([]int, len(kids))
			for j, kid := range kids {
				children[j] = blocks[kid]
				childPos[j] = pins[d][kid]
			}
			childSets[i] = children
			posSets[i] = childPos
			keys[i] = mergeKey(nodeGraph, childSets[i], posSets[i], d)
		}
		rep, groupOf := siblingGroups(len(parents), cfg.DisableSiblingReuse, func(i int) uint64 {
			return keys[i]
		})
		scope.Span(telemetry.Span{Name: "prepare", Phase: telemetry.PhaseMerge, Worker: -1, Level: d,
			Jobs: len(rep), Dur: time.Since(prepStart)}, prepStart)
		// A merge evaluates on its parent block: at the root that is the
		// machine itself (the root block covers it), with its own wrap
		// flags and the default-order bar; below it the plain parent mesh,
		// unbarred.
		parent, mbar := topology.NewMesh(h.BlockShape(d)...), math.Inf(1)
		if d == 0 {
			parent, mbar = t, bar
		}
		inner := innerParallelism(workers, len(rep))
		type mergeResult struct {
			block *merge.Block
			err   error
		}
		merged := make([]mergeResult, len(rep))
		if err := forEach(ctx, workers, len(rep), func(worker, gi int) {
			i := rep[gi]
			t0 := time.Now()
			m, err := merge.MergeCtx(ctx, nodeGraph, childSets[i], parent, posSets[i], cfg.Merge, inner, mbar)
			elapsed := time.Since(t0)
			mergeWork.Add(int64(elapsed))
			sp := telemetry.Span{Name: "merge", Phase: telemetry.PhaseMerge, Worker: worker, Level: d,
				Hash: keys[i], Dur: elapsed}
			if err == nil {
				if len(m.Candidates) > 0 {
					sp.MCL = m.Candidates[0].MCL
				} else {
					sp.Barred, sp.BarSteps = true, m.BarSteps
				}
			}
			scope.Span(sp, t0)
			merged[gi] = mergeResult{block: m, err: err}
		}); err != nil {
			return nil, err
		}
		for _, m := range merged {
			if m.err != nil {
				return nil, fmt.Errorf("core: phase 3 level %d: %w", d, m.err)
			}
		}
		fanStart := time.Now()
		levelHits := 0
		for i := range parents {
			gi := groupOf[i]
			res.Stats.Merges++
			if i == rep[gi] {
				if merged[gi].block.Degraded {
					res.Stats.Degraded = true
				}
				next[i] = merged[gi].block
			} else {
				next[i] = translateBlock(merged[gi].block, childSets[i])
				res.Stats.MergesHit++
				levelHits++
			}
		}
		scope.Span(telemetry.Span{Name: "fanout", Phase: telemetry.PhaseMerge, Worker: -1, Level: d,
			Jobs: len(parents), Dur: time.Since(fanStart)}, fanStart)
		scope.CounterOr(telemetry.CtrMerges, ctrMerges).Add(int64(len(parents)))    //rahtm:allow(telemetrybatch): flushes once per level, already batched from the fan-out loop
		scope.CounterOr(telemetry.CtrMergeHits, ctrMergeHits).Add(int64(levelHits)) //rahtm:allow(telemetrybatch): flushes once per level, already batched from the fan-out loop
		blocks = next
	}
	res.Stats.MergeTime = time.Since(start)
	res.Stats.MergeWorkTime = time.Duration(mergeWork.Load())
	scope.Span(phaseSpan(telemetry.PhaseMerge, res.Stats.MergeTime), start)

	// ---- Final assembly -------------------------------------------------
	// After the loop blocks[0] is the root block (for L == 1 the Phase 2
	// root solution wrapped as a leaf block).
	final := blocks[0]
	res.Stats.CandidatesKept = len(final.Candidates)

	// Block-local positions are row-major over BlockShape(0), the
	// machine's shape, so they are topology ranks. Safety net: the beam
	// search is heuristic, and on workloads the default order already
	// embeds perfectly it can land above it. Compare against the identity
	// (default) node order and keep the better — the paper's evaluation
	// never loses to ABCDET, and neither do we. A root block without
	// candidates is a merge the bar stopped: the identity beats every state
	// it could have returned.
	if len(final.Candidates) > 0 {
		best := final.Candidates[0]
		res.NodeMapping = make(topology.Mapping, t.N())
		for i, task := range final.Tasks {
			res.NodeMapping[task] = best.Local[i]
		}
		if err := res.NodeMapping.Validate(t.N(), true); err != nil {
			return nil, fmt.Errorf("core: produced invalid node mapping: %w", err)
		}
		res.MCL = routing.MaxChannelLoad(t, nodeGraph, res.NodeMapping, routing.MinimalAdaptive{}.WithScope(scope))
	}
	if len(final.Candidates) == 0 || idMCL < res.MCL {
		res.NodeMapping = topology.Identity(t.N())
		res.MCL = idMCL
		res.Stats.DefaultFallback = true
	}

	res.place(procToTask)
	return res, nil
}

// phaseSpan is the envelope span of a completed pipeline phase.
func phaseSpan(phase string, dur time.Duration) telemetry.Span {
	return telemetry.Span{Name: "phase", Phase: phase, Worker: -1, Level: -1, Dur: dur}
}

func identity(n int) []int {
	a := make([]int, n)
	for i := range a {
		a[i] = i
	}
	return a
}

func anyWrap(t *topology.Torus) bool {
	for d := 0; d < t.NumDims(); d++ {
		if t.Wrap(d) {
			return true
		}
	}
	return false
}

// entityCount returns the number of blocks at the given depth.
func entityCount(h *topology.Hierarchy, depth int) int {
	n := 1
	for l := 0; l < depth && l < h.NumLevels(); l++ {
		n *= h.CubeSize(l)
	}
	return n
}

// mergeKey fingerprints a merge subproblem: the relabeled induced graph over
// the union of child tasks, the child partition and pins, and the children's
// own candidate structure.
func mergeKey(g *graph.Comm, children []*merge.Block, childPos []int, depth int) uint64 {
	var tasks []int
	for _, c := range children {
		tasks = append(tasks, c.Tasks...)
	}
	sort.Ints(tasks)
	sub, local := g.InducedSubgraph(tasks)
	key := sub.StructuralHash() ^ uint64(depth)<<48
	for i, c := range children {
		key = key*1099511628211 + uint64(childPos[i])
		for _, t := range c.Tasks {
			key = key*1099511628211 + uint64(local[t])
		}
		for _, cand := range c.Candidates {
			for _, p := range cand.Local {
				key = key*1099511628211 + uint64(p) + 7
			}
		}
	}
	return key
}

// translateBlock reuses a cached merged block for a structurally identical
// sibling: positions carry over; task ids come from the sibling's children.
func translateBlock(cached *merge.Block, children []*merge.Block) *merge.Block {
	var tasks []int
	for _, c := range children {
		tasks = append(tasks, c.Tasks...)
	}
	sort.Ints(tasks)
	out := &merge.Block{
		Tasks:    tasks,
		Shape:    append([]int(nil), cached.Shape...),
		Degraded: cached.Degraded,
	}
	for _, cand := range cached.Candidates {
		out.Candidates = append(out.Candidates, merge.Candidate{
			Local: cand.Local.Clone(),
			MCL:   cand.MCL,
		})
	}
	return out
}
