// Package merge implements Phase 3 of RAHTM: bottom-up merging of mapped
// sub-blocks with rotation/reorientation search and top-N candidate pruning.
//
// Each block carries a beam of candidate internal mappings. Merging the
// children of one hierarchy node proceeds incrementally: children are
// ordered by decreasing average pairwise MCL (blocks with heavy interactions
// get placed while the search is still flexible), and at every step all
// combinations of surviving partial configurations, child candidates, and
// child orientations (the hyperoctahedral symmetries of the child box) are
// scored by the maximum channel load of the traffic merged so far; only the
// best N (the paper uses N = 64) survive.
//
// # Incremental MCL evaluation
//
// Scoring a candidate placement does not recompute the merged channel loads
// from scratch. A candidate perturbs only the channels its own flows
// traverse, so the scorers accumulate the candidate's contribution — the
// incoming child's internal loads plus its cross flows to the already-placed
// children — into a sparse routing.DeltaVec and score it against the partial
// configuration's dense load vector as
//
//	mcl = max(state.mcl, max over touched ch of state.loads[ch] + delta[ch])
//
// which is exact (bit-for-bit, not approximately) because deltas are
// non-negative: untouched channels cannot exceed the state's maximum. This
// sparse scorer is the only scoring path, at every channel-space size. The
// child-internal loads are themselves computed once per (candidate,
// orientation) pair at the child's pinned cube position and translated to
// any other position by a constant channel offset — inside a 2-ary merge
// cube a child box never spans half a wrapped parent dimension, so its
// internal minimal routes neither wrap nor pick up direction ties, making
// the load pattern translation-equivariant.
//
// # Exact bound pruning
//
// A step keeps only its best N combinations, so a combination that is
// proven unable to enter the beam need not be scored to the end. Each
// scoring worker keeps its best N combinations in a bounded heap ordered by
// the step's total order (MCL, then state key, then packed choice). Once the
// heap is full its worst MCL is the worker's bound: the worker skips a beam
// state whose MCL is above it, and drops a combination as soon as the
// DeltaVec's running peak (routing.DeltaVec.ResetOver) is above it. The
// step then merges the workers' heaps instead of sorting every
// combination. The pruning is exact, not a heuristic:
//
//   - Every deposit is non-negative: graph volumes are positive
//     (AddTraffic drops vol <= 0, Scale panics on f <= 0) and routing splits
//     them into non-negative fractions.
//   - Under round-to-nearest fl(v+x) >= v for x >= 0, and fl(b+v) is
//     monotone in v, so the peak only grows and its final value is
//     bit-for-bit the max over the finished vector.
//   - A worker's bound is the N-th best score over a subset of the step's
//     combinations, so it is at least the step's final N-th best; a
//     combination whose peak is strictly above it cannot enter the beam.
//     Ties at the bound are scored in full and ordered by key.
//   - Every beam member is in its own worker's top N, so merging the heaps
//     yields exactly the beam a full sort would.
//
// Most rejected combos peak on a few channels. On channel spaces of at
// least minScreenChans, once a worker has rejected screenAfter combos in
// full in one unit of work, it prescreens each later combo with a finite
// bound at the pinned cube: routing.Table.Screen learns S, the channels
// the full rejections peaked on (DeltaVec.PeakChan), and screenRejects
// replays only the combo's deposits on S, in the full replay's order,
// rejecting it once that S-peak is above the bound. A channel's running
// total depends only on the deposits to that channel, in their order, so
// the S-values are the full replay's and the S-peak is a floor under the
// full peak: the prescreen rejects only combos the full scorer rejects.
// Survivors are scored in full, so each heap sees the same combos in the
// same order: beams, mappings and the other beam counters do not change,
// and only the stencil hits of the combos never routed in full go.
//
// Bounds and screen sets are per worker, never shared, so the pruning
// counters (merge.beam.bound_skips, and merge.beam.screen_skips among
// them) repeat exactly for a given Parallelism and the mappings are
// identical at every Parallelism. mergeOrder applies the same
// cut-off to its orientation-pair evaluations: an evaluation stops once its
// peak reaches the best MCL already found for that child pair.
// TestMergeDeltaByteIdentical checks the production merge byte-for-byte
// against a dense, unpruned, fully sorted reference kept in the tests.
package merge

import (
	"container/heap"
	"context"
	"fmt"
	"math"
	"sort"

	"rahtm/internal/graph"
	"rahtm/internal/routing"
	"rahtm/internal/sched"
	"rahtm/internal/telemetry"
	"rahtm/internal/topology"
)

// Beam-search counters on the process-wide registry. The scoring loops
// accumulate plain locals and flush once per merge step / ordering pass.
var (
	ctrBeamCandidates = telemetry.Default.Counter(telemetry.CtrBeamCandidates)
	ctrBeamKept       = telemetry.Default.Counter(telemetry.CtrBeamKept)
	ctrSymmetryEvals  = telemetry.Default.Counter(telemetry.CtrSymmetryEvals)
	ctrBoundSkips     = telemetry.Default.Counter(telemetry.CtrBeamBoundSkips)
	ctrScreenSkips    = telemetry.Default.Counter(telemetry.CtrBeamScreenSkips)
)

const (
	// screenAfter is how many combos a pass-1 worker rejects in full in
	// one unit of work before it prescreens the rest on the channels those
	// rejections peaked on (routing.Table.Screen caps the set).
	screenAfter = 64
	// minScreenChans is the smallest channel space pass 1 prescreens. On
	// smaller ones a route is a few deposits long, so a screen replay,
	// which looks every flow's route up as the full replay does, saves
	// little, and the combos that pass it pay twice: 4x4 cold solves (64
	// channels) took about 8% longer with the prescreen.
	minScreenChans = 1024
)

// Orientation is a signed dimension permutation of a box: output coordinate
// d reads input coordinate Perm[d], reversed when Flip[d] is set. Only
// shape-preserving orientations are valid for a given box.
type Orientation struct {
	Perm []int
	Flip []bool
}

// Orientations enumerates every shape-preserving orientation of a box,
// deterministically. Flips of 1-wide dimensions are identities and are not
// enumerated.
func Orientations(shape []int) []Orientation {
	nd := len(shape)
	var out []Orientation
	perm := make([]int, nd)
	used := make([]bool, nd)
	var flips func(p []int, d int, f []bool)
	flips = func(p []int, d int, f []bool) {
		if d == nd {
			out = append(out, Orientation{
				Perm: append([]int(nil), p...),
				Flip: append([]bool(nil), f...),
			})
			return
		}
		f[d] = false
		flips(p, d+1, f)
		if shape[d] > 1 {
			f[d] = true
			flips(p, d+1, f)
			f[d] = false
		}
	}
	var perms func(d int)
	perms = func(d int) {
		if d == nd {
			flips(perm, 0, make([]bool, nd))
			return
		}
		if shape[d] == 1 {
			// Permuting 1-wide dimensions among themselves never changes
			// the action; pin them to avoid duplicate orientations.
			if used[d] {
				return
			}
			used[d] = true
			perm[d] = d
			perms(d + 1)
			used[d] = false
			return
		}
		for v := 0; v < nd; v++ {
			if used[v] || shape[v] != shape[d] {
				continue
			}
			used[v] = true
			perm[d] = v
			perms(d + 1)
			used[v] = false
		}
	}
	perms(0)
	return out
}

// applyFast is Apply without heap allocations for boxes of at most 8
// dimensions — the merge scorers call it once per task per candidate.
func (o Orientation) applyFast(shape []int, pos int) int {
	nd := len(shape)
	if nd > 8 {
		return o.Apply(shape, pos)
	}
	var x, y [8]int
	for d := nd - 1; d >= 0; d-- {
		x[d] = pos % shape[d]
		pos /= shape[d]
	}
	for d := 0; d < nd; d++ {
		v := x[o.Perm[d]]
		if o.Flip[d] {
			v = shape[d] - 1 - v
		}
		y[d] = v
	}
	out := 0
	for d := 0; d < nd; d++ {
		out = out*shape[d] + y[d]
	}
	return out
}

// Apply transforms a row-major position within a box of the given shape.
func (o Orientation) Apply(shape []int, pos int) int {
	nd := len(shape)
	// Decode row-major (last dim fastest).
	x := make([]int, nd)
	for d := nd - 1; d >= 0; d-- {
		x[d] = pos % shape[d]
		pos /= shape[d]
	}
	// Transform.
	y := make([]int, nd)
	for d := 0; d < nd; d++ {
		v := x[o.Perm[d]]
		if o.Flip[d] {
			v = shape[d] - 1 - v
		}
		y[d] = v
	}
	// Encode.
	out := 0
	for d := 0; d < nd; d++ {
		out = out*shape[d] + y[d]
	}
	return out
}

// Candidate is one internal mapping of a block, with its MCL estimate.
type Candidate struct {
	// Local maps task index (into Block.Tasks) to a row-major position in
	// Block.Shape.
	Local topology.Mapping
	// MCL is the maximum channel load of the block-internal traffic under
	// the uniform minimal-path model.
	MCL float64
}

// Block is a mapped sub-box of the machine carrying a beam of candidates,
// best first.
type Block struct {
	Tasks      []int // global task ids, ascending
	Shape      []int // box extent per dimension
	Candidates []Candidate
	// Degraded is set when the merge ran out of time (context deadline)
	// and completed greedily instead of searching: the candidates are
	// valid but best-effort.
	Degraded bool
	// BarSteps is how many merge steps ran before the bar left no state
	// (MergeCtx), when Candidates is empty: 0 means the floor check found
	// a child that no (candidate, orientation) pair keeps at or below it.
	BarSteps int
}

// NewLeafBlock wraps a Phase 2 leaf solution as a single-candidate block.
// tasks[i] is the global id of local task i; local[i] its cube position.
func NewLeafBlock(tasks []int, shape []int, local topology.Mapping, mcl float64) *Block {
	return &Block{
		Tasks:      append([]int(nil), tasks...),
		Shape:      append([]int(nil), shape...),
		Candidates: []Candidate{{Local: local.Clone(), MCL: mcl}},
	}
}

// Config tunes the merge search. Zero values select the paper's defaults.
type Config struct {
	// BeamWidth is the number of merged candidates retained (paper: 64).
	BeamWidth int
	// ChildCandidates caps how many candidates of an incoming child are
	// combined with the beam (0 = 4).
	ChildCandidates int
	// Torus evaluates the merged block with wraparound links. The
	// pipeline (core) sets it at every level, over any value its config
	// carries: at the root when the machine wraps, nowhere below it.
	Torus bool
	// Topology, when non-nil, overrides the evaluation topology of the
	// merged block (its dimensions must equal the parent block shape).
	// The pipeline (core) sets it at every level, over any value its
	// config carries: the real machine at a root that covers it, so
	// per-dimension wrap flags are exact, and nil everywhere else.
	Topology *topology.Torus
	// MaxOrientations caps how many child orientations are explored per
	// merge step (0 = 384, the full hyperoctahedral group of a 4-D cube).
	// Larger groups are subsampled with a deterministic stride that always
	// keeps the identity.
	MaxOrientations int
	// MaxPairEvals caps the orientation-pair evaluations used for merge
	// ordering (0 = 4096); ordering falls back to coarser sampling above.
	MaxPairEvals int
	// Reposition additionally searches over the free cube positions for
	// each incoming child instead of honoring its Phase 2 pseudo-pin —
	// the extra placement freedom §III-D alludes to. It multiplies the
	// search space by up to the cube size.
	Reposition bool
	// Parallelism bounds the workers scoring merge candidates, resolved
	// by sched.Workers (0 = GOMAXPROCS, below 1 = 1).
	Parallelism int
}

func (c Config) withDefaults() Config {
	if c.BeamWidth <= 0 {
		c.BeamWidth = 64
	}
	if c.ChildCandidates <= 0 {
		c.ChildCandidates = 4
	}
	if c.MaxOrientations <= 0 {
		c.MaxOrientations = 384
	}
	if c.MaxPairEvals <= 0 {
		c.MaxPairEvals = 4096
	}
	return c
}

// MergeCtx combines child blocks arranged on a {1,2}^n cube into their
// parent block. childPos[i] is the pinned cube position of child i
// (row-major over cubeShape) from Phase 2. g is the global task-level
// communication graph. Hard cancellation aborts the beam
// search (workers bail at their next poll) and returns ctx.Err(); an
// expired deadline stops searching and completes the remaining children
// greedily — pinned positions, first candidate, identity orientation — so a
// valid merged block is still produced, flagged Degraded.
//
// bar caps the MCL of the states the search keeps: the result is the
// unbarred beam cut at bar, and the merge stops with a block without
// candidates (Block.BarSteps) once no state at or below bar is left. Pass
// math.Inf(1) for an unbarred merge.
func MergeCtx(ctx context.Context, g *graph.Comm, children []*Block, cubeShape []int, childPos []int, cfg Config, bar float64) (*Block, error) {
	if err := sched.HardCancel(ctx); err != nil {
		return nil, err
	}
	m, err := newMerger(ctx, g, children, cubeShape, childPos, cfg)
	if err != nil {
		return nil, err
	}
	m.bar = bar
	return m.run()
}

// newMerger validates a merge's inputs and prepares its search state. The
// merger it returns is unbarred.
func newMerger(ctx context.Context, g *graph.Comm, children []*Block, cubeShape []int, childPos []int, cfg Config) (*merger, error) {
	cfg = cfg.withDefaults()
	if len(children) == 0 {
		return nil, fmt.Errorf("merge: no children")
	}
	if len(childPos) != len(children) {
		return nil, fmt.Errorf("merge: %d children, %d positions", len(children), len(childPos))
	}
	nd := len(cubeShape)
	childShape := children[0].Shape
	for i, c := range children {
		if len(c.Shape) != nd {
			return nil, fmt.Errorf("merge: child %d dimensionality mismatch", i)
		}
		for d := range childShape {
			if c.Shape[d] != childShape[d] {
				return nil, fmt.Errorf("merge: child %d shape %v differs from %v", i, c.Shape, childShape)
			}
		}
		if len(c.Candidates) == 0 {
			return nil, fmt.Errorf("merge: child %d has no candidates", i)
		}
	}
	cubeSize := 1
	parentShape := make([]int, nd)
	for d := 0; d < nd; d++ {
		if cubeShape[d] != 1 && cubeShape[d] != 2 {
			return nil, fmt.Errorf("merge: cube shape %v is not 2-ary", cubeShape)
		}
		cubeSize *= cubeShape[d]
		parentShape[d] = cubeShape[d] * childShape[d]
	}
	if len(children) != cubeSize {
		return nil, fmt.Errorf("merge: %d children for cube of %d positions", len(children), cubeSize)
	}
	seen := make([]bool, cubeSize)
	for i, p := range childPos {
		if p < 0 || p >= cubeSize || seen[p] {
			return nil, fmt.Errorf("merge: bad child position %d for child %d", p, i)
		}
		seen[p] = true
	}
	if cfg.Reposition && cubeSize > 64 {
		return nil, fmt.Errorf("merge: repositioning supports cubes up to 64 positions, have %d", cubeSize)
	}

	m := &merger{
		g:          g,
		children:   children,
		childPos:   childPos,
		cubeShape:  cubeShape,
		childShape: childShape,
		cfg:        cfg,
		bar:        math.Inf(1),
	}
	switch {
	case cfg.Topology != nil:
		for d := 0; d < nd; d++ {
			if cfg.Topology.Dim(d) != parentShape[d] {
				return nil, fmt.Errorf("merge: override topology %v does not match parent shape %v",
					cfg.Topology, parentShape)
			}
		}
		m.parent = cfg.Topology
	case cfg.Torus:
		m.parent = topology.NewTorus(parentShape...)
	default:
		m.parent = topology.NewMesh(parentShape...)
	}
	m.orients = Orientations(childShape)
	if len(m.orients) > cfg.MaxOrientations {
		// Deterministic stride subsample keeping the identity (index 0).
		stride := (len(m.orients) + cfg.MaxOrientations - 1) / cfg.MaxOrientations
		var kept []Orientation
		for i := 0; i < len(m.orients); i += stride {
			kept = append(kept, m.orients[i])
		}
		m.orients = kept
	}
	m.origins = make([][]int, cubeSize)
	m.originRank = make([]int, cubeSize)
	for p := 0; p < cubeSize; p++ {
		m.origins[p] = cubeOrigin(cubeShape, childShape, p)
		m.originRank[p] = m.parent.RankOf(m.origins[p])
	}
	m.ctx = ctx
	m.scope = telemetry.ScopeFrom(ctx)
	m.workers = sched.Workers(cfg.Parallelism)
	m.alg = routing.MinimalAdaptive{}.WithScope(m.scope)
	m.tabs = make([]*routing.Table, m.workers)
	for w := range m.tabs {
		m.tabs[w] = m.alg.Table(m.parent)
	}
	m.initAdjacency()
	return m, nil
}

// stopped reports whether the merge must stop scoring, polled once per
// unit of work: ctx is done, or its deadline has passed by the clock
// (sched.Expired). With one worker the scorers run on the caller's
// goroutine, which gives the runtime no point at which to fire a deadline
// timer, so a poll of ctx.Done alone could miss the deadline until the
// stage ends.
func (m *merger) stopped() bool { return m.ctx.Err() != nil || sched.Expired(m.ctx) }

// cubeOrigin returns the parent-box origin of the child at cube position p.
func cubeOrigin(cubeShape, childShape []int, p int) []int {
	nd := len(cubeShape)
	o := make([]int, nd)
	for d := nd - 1; d >= 0; d-- {
		o[d] = (p % cubeShape[d]) * childShape[d]
		p /= cubeShape[d]
	}
	return o
}

type merger struct {
	g          *graph.Comm
	children   []*Block
	childPos   []int
	cubeShape  []int
	childShape []int
	parent     *topology.Torus
	orients    []Orientation
	origins    [][]int // cube position -> parent origin coords
	originRank []int   // cube position -> parent rank of the origin
	cfg        Config
	ctx        context.Context
	// scope is the request scope carried by ctx (nil outside the daemon);
	// alg, scoped to it, makes the route tables, so every scorer's stencil
	// traffic is attributed to the owning request.
	scope *telemetry.Scope
	alg   routing.MinimalAdaptive
	// workers bounds the scorers' sched.Run fan-outs. tabs holds one
	// route table per worker slot for the merger's lifetime; pass 2 and
	// completeGreedy, which run alone, take slot 0.
	workers int
	tabs    []*routing.Table
	// bar caps the MCL of every kept state (MergeCtx); +Inf when unbarred.
	bar float64

	// Per-task adjacency of the merged tasks: aliases of the graph's CSR
	// rows, cached so the scorers never look a row up per evaluation.
	// Read-only.
	nbr  [][]int32
	nvol [][]float64
	// taskChild/taskLocal invert the children's task lists: global task id
	// -> owning child index and local index within that child (-1 for tasks
	// outside this merge). The scorers use them to extract cross-child flow
	// lists once per step instead of re-marking task sets per evaluation.
	taskChild []int32
	taskLocal []int32
}

// initAdjacency caches neighbor/volume lists for every task of the merge.
func (m *merger) initAdjacency() {
	n := m.g.N()
	m.nbr = make([][]int32, n)
	m.nvol = make([][]float64, n)
	m.taskChild = make([]int32, n)
	m.taskLocal = make([]int32, n)
	for t := range m.taskChild {
		m.taskChild[t] = -1
		m.taskLocal[t] = -1
	}
	for ci, c := range m.children {
		for i, t := range c.Tasks {
			m.taskChild[t] = int32(ci)
			m.taskLocal[t] = int32(i)
		}
	}
	for _, c := range m.children {
		for _, t := range c.Tasks {
			if m.nbr[t] != nil {
				continue
			}
			//rahtm:allow(csralias): nbr/nvol deliberately cache CSR row aliases for zero-copy adjacency scans; the rows are never written and the immutable graph outlives the merger (TestMergeDeltaByteIdentical covers the read-only contract)
			m.nbr[t], m.nvol[t] = m.g.Edges(t)
		}
	}
}

// taskParentPos computes the parent-box rank of a child's task under a
// candidate and orientation, with the child block at cube position cubePos.
func (m *merger) taskParentPos(cand Candidate, o Orientation, cubePos, taskIdx int) int {
	local := o.applyFast(m.childShape, cand.Local[taskIdx])
	// Decode local within childShape, offset by the child's origin.
	origin := m.origins[cubePos]
	nd := len(m.childShape)
	if nd <= 8 {
		var buf [8]int
		coord := buf[:nd]
		for d := nd - 1; d >= 0; d-- {
			coord[d] = origin[d] + local%m.childShape[d]
			local /= m.childShape[d]
		}
		return m.parent.RankOf(coord)
	}
	coord := make([]int, nd)
	for d := nd - 1; d >= 0; d-- {
		coord[d] = origin[d] + local%m.childShape[d]
		local /= m.childShape[d]
	}
	return m.parent.RankOf(coord)
}

// table returns worker slot w's route table, emptied for a new unit of
// disjoint work so that it holds only the pairs the unit routes.
func (m *merger) table(w int) *routing.Table {
	tab := m.tabs[w]
	tab.Reset()
	return tab
}

// placementAt materializes parent positions for all tasks of a child placed
// at the given cube position.
func (m *merger) placementAt(child int, cand Candidate, o Orientation, cubePos int) []int {
	out := make([]int, len(m.children[child].Tasks))
	for i := range out {
		out[i] = m.taskParentPos(cand, o, cubePos, i)
	}
	return out
}

// placement materializes parent positions using the child's pinned position.
func (m *merger) placement(child int, cand Candidate, o Orientation) []int {
	return m.placementAt(child, cand, o, m.childPos[child])
}

// addFlowsDelta deposits the loads of every graph flow inside one child,
// its tasks placed at pos (local task index -> parent rank), into a sparse
// DeltaVec through the worker's table. It stops early once dv's running
// peak (ResetOver) is above bound; pass +Inf to route every flow.
func (m *merger) addFlowsDelta(tab *routing.Table, child int, pos []int, dv *routing.DeltaVec, bound float64) {
	for li, t := range m.children[child].Tasks {
		for ni, d := range m.nbr[t] {
			if dv.Peak() > bound {
				return
			}
			if m.taskChild[d] == int32(child) {
				tab.AddLoadsDelta(pos[li], pos[m.taskLocal[d]], m.nvol[t][ni], dv)
			}
		}
	}
}

// floorAboveBar reports whether some child has no (candidate, orientation)
// pair whose internal loads stay at or below the bar. A child's internal
// loads are the same at every cube position (the package comment), every
// state holds one such pair per child, and deposits only raise a state's
// MCL, so such a child puts every merged state above the bar. Each pair is
// routed as the scorers route it into their snapshots, so the loads are
// bit-identical, and cut off once its peak passes the bar; a child's pairs
// are tried in scoring order until one stays at or below it.
func (m *merger) floorAboveBar() bool {
	nch := m.parent.NumChannels()
	zero := make([]float64, nch) // read-only peak base
	dv := routing.NewDeltaVec(nch)
	tab := m.tabs[0]
	defer tab.Flush()
	for ci, c := range m.children {
		tab.Reset() // one child's pairs are one unit of work
		nc := min(len(c.Candidates), m.cfg.ChildCandidates)
		below := false
		for k := 0; k < nc*len(m.orients) && !below; k++ {
			cand, o := c.Candidates[k/len(m.orients)], m.orients[k%len(m.orients)]
			dv.ResetOver(zero, 0)
			m.addFlowsDelta(tab, ci, m.placement(ci, cand, o), dv, m.bar)
			below = dv.Peak() <= m.bar
		}
		if !below {
			return true
		}
	}
	return false
}

// mergeOrder ranks children by decreasing average best-pair MCL. Each
// child's internal loads are routed once per sampled orientation into a
// snapshot; a pair evaluation then replays two snapshots and routes only the
// cross flows, sparsely — no dense vector is zeroed or scanned per pair —
// and stops as soon as its running peak reaches the pair's best MCL so far,
// since only a strictly lower MCL can replace it. A snapshot's largest
// value is a floor under every evaluation that replays it, so a pair whose
// floor already reaches the best is skipped outright: its evaluation would
// stop before routing a single cross flow.
func (m *merger) mergeOrder() []int {
	n := len(m.children)
	if n == 1 {
		return []int{0}
	}
	// Cap orientation pairs.
	ko := len(m.orients)
	for ko > 1 && ko*ko > m.cfg.MaxPairEvals {
		ko--
	}
	workers := m.workers

	// Stage 1: pinned placements and internal-load snapshots per (child,
	// orientation), shared by every pair the child participates in, with
	// each snapshot's largest value.
	pl := make([][][]int, n)
	snaps := make([][]routing.Snapshot, n)
	floor := make([][]float64, n)
	for i := range pl {
		pl[i] = make([][]int, ko)
		snaps[i] = make([]routing.Snapshot, ko)
		floor[i] = make([]float64, ko)
	}
	sched.Run(workers, n*ko, func(w, lo, hi int) {
		tab := m.table(w)
		defer tab.Flush()
		dv := routing.NewDeltaVec(m.parent.NumChannels())
		for u := lo; u < hi; u++ {
			if m.stopped() {
				return // ordering becomes partial; run() handles the context
			}
			i, oi := u/ko, u%ko
			p := m.placement(i, m.children[i].Candidates[0], m.orients[oi])
			dv.Reset()
			m.addFlowsDelta(tab, i, p, dv, math.Inf(1))
			pl[i][oi] = p
			snaps[i][oi] = dv.Snapshot(routing.Snapshot{})
			for _, v := range snaps[i][oi].Val {
				if v > floor[i][oi] {
					floor[i][oi] = v
				}
			}
		}
	})

	// Stage 2: pair evaluations. The cross flows of each child pair are
	// extracted once from the adjacency (a single graph pass); an
	// evaluation replays the two internal snapshots and routes only those
	// flows.
	type pair struct{ i, j int }
	var pairs []pair
	pairIdx := make([][]int, n)
	for i := 0; i < n; i++ {
		pairIdx[i] = make([]int, n)
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			pairIdx[i][j] = len(pairs)
			pairs = append(pairs, pair{i, j})
		}
	}
	type pairEdge struct {
		ai, bi int32 // local task indices within child i / child j
		fromJ  bool  // the flow runs j -> i when set
		vol    float64
	}
	pairEdges := make([][]pairEdge, len(pairs))
	for t := 0; t < m.g.N(); t++ {
		ci := m.taskChild[t]
		if ci < 0 {
			continue
		}
		for ni, d := range m.nbr[t] {
			cj := m.taskChild[d]
			if cj < 0 || cj == ci {
				continue
			}
			vol := m.nvol[t][ni]
			if ci < cj {
				pi := pairIdx[ci][cj]
				pairEdges[pi] = append(pairEdges[pi], pairEdge{ai: m.taskLocal[t], bi: m.taskLocal[d], vol: vol})
			} else {
				pi := pairIdx[cj][ci]
				pairEdges[pi] = append(pairEdges[pi], pairEdge{ai: m.taskLocal[d], bi: m.taskLocal[t], fromJ: true, vol: vol})
			}
		}
	}
	best := make([]float64, len(pairs))
	zero := make([]float64, m.parent.NumChannels()) // shared read-only peak base
	sched.Run(workers, len(pairs), func(w, lo, hi int) {
		var evals int64
		defer func() { m.scope.CounterOr(telemetry.CtrSymmetryEvals, ctrSymmetryEvals).Add(evals) }()
		tab := m.tabs[w]
		defer tab.Flush()
		dv := routing.NewDeltaVec(m.parent.NumChannels())
		for pi := lo; pi < hi; pi++ {
			if m.stopped() {
				return // ordering becomes partial; run() handles the context
			}
			// A child pair routes its own node pairs only.
			tab.Reset()
			i, j := pairs[pi].i, pairs[pi].j
			bst := -1.0
			for oi := 0; oi < ko; oi++ {
				if pl[i][oi] == nil {
					continue // stage 1 was cut short by cancellation
				}
				for oj := 0; oj < ko; oj++ {
					if pl[j][oj] == nil {
						continue
					}
					evals++
					if bst >= 0 && (floor[i][oi] >= bst || floor[j][oj] >= bst) {
						continue // the evaluation could not go below bst
					}
					dv.ResetOver(zero, 0)
					dv.AddSnapshot(snaps[i][oi], 0)
					dv.AddSnapshot(snaps[j][oj], 0)
					for _, e := range pairEdges[pi] {
						if bst >= 0 && dv.Peak() >= bst {
							break // cannot go below bst any more
						}
						if e.fromJ {
							tab.AddLoadsDelta(pl[j][oj][e.bi], pl[i][oi][e.ai], e.vol, dv)
						} else {
							tab.AddLoadsDelta(pl[i][oi][e.ai], pl[j][oj][e.bi], e.vol, dv)
						}
					}
					if mcl := dv.Peak(); bst < 0 || mcl < bst {
						bst = mcl
					}
				}
			}
			best[pi] = bst
		}
	})
	avg := make([]float64, n)
	for pi, p := range pairs {
		avg[p.i] += best[pi]
		avg[p.j] += best[pi]
	}
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return avg[order[a]] > avg[order[b]] })
	return order
}

// state is one partial merged configuration.
type state struct {
	pos  [][]int // per merged child (in merge order): task parent positions
	cube []int   // cube position chosen per merged child (in merge order)
	used uint64  // bitmask of occupied cube positions
	// key is the packed (cube, candidate, orientation) choice made at every
	// merge step: a placement key unique to the state, used as the
	// deterministic tie-break between equal-MCL states so beam contents
	// never depend on scoring order or parallelism.
	key   []uint64
	loads []float64
	mcl   float64
}

// extend returns the state that adds one more child to st: its task
// placement p at cube position cube, chosen as choice (packChoice), with the
// merged loads and their MCL.
func (st *state) extend(p []int, cube int, choice uint64, loads []float64, mcl float64) *state {
	step := len(st.pos)
	pos := make([][]int, step+1)
	copy(pos, st.pos)
	pos[step] = p
	cubes := make([]int, step+1)
	copy(cubes, st.cube)
	cubes[step] = cube
	key := make([]uint64, step+1)
	copy(key, st.key)
	key[step] = choice
	return &state{
		pos:   pos,
		cube:  cubes,
		used:  st.used | 1<<uint(cube),
		key:   key,
		loads: loads,
		mcl:   mcl,
	}
}

// packChoice encodes one merge step's choice as a single ordered word.
func packChoice(cube, cand, orient int) uint64 {
	return uint64(cube)<<40 | uint64(cand)<<20 | uint64(orient)
}

// lessKey compares placement keys lexicographically. Keys of states in the
// same beam have equal length.
func lessKey(a, b []uint64) bool {
	for i := 0; i < len(a) && i < len(b); i++ {
		if a[i] != b[i] {
			return a[i] < b[i]
		}
	}
	return len(a) < len(b)
}

// combo is one (beam state, child candidate, orientation, cube position)
// scoring unit of a merge step.
type combo struct {
	si     int32
	cand   int32
	orient int32
	cube   int32
	mcl    float64
}

// comboLess is a merge step's total order: MCL first, then the placement
// key — the state's choice path, then this step's packed choice — so the
// kept combos never depend on scoring order or parallelism.
func comboLess(beam []*state, a, b *combo) bool {
	if a.mcl < b.mcl {
		return true
	}
	if b.mcl < a.mcl {
		return false
	}
	if a.si != b.si {
		return lessKey(beam[a.si].key, beam[b.si].key)
	}
	return packChoice(int(a.cube), int(a.cand), int(a.orient)) <
		packChoice(int(b.cube), int(b.cand), int(b.orient))
}

// topCombos is one scoring worker's best n combos of a merge step at or
// below bar, kept as a max-heap under comboLess (container/heap): the root
// is the worst combo kept.
type topCombos struct {
	beam []*state
	n    int
	bar  float64
	h    []combo
}

func (t *topCombos) Len() int           { return len(t.h) }
func (t *topCombos) Less(i, j int) bool { return comboLess(t.beam, &t.h[j], &t.h[i]) }
func (t *topCombos) Swap(i, j int)      { t.h[i], t.h[j] = t.h[j], t.h[i] }
func (t *topCombos) Push(x any)         { t.h = append(t.h, x.(combo)) }
func (t *topCombos) Pop() any {
	c := t.h[len(t.h)-1]
	t.h = t.h[:len(t.h)-1]
	return c
}

// bound is the score a combo must not exceed to enter the heap: the bar
// until the heap holds n combos, then the lower of the bar and the worst
// kept MCL.
func (t *topCombos) bound() float64 {
	if len(t.h) < t.n {
		return t.bar
	}
	return min(t.h[0].mcl, t.bar)
}

// offer keeps c if it ranks among the n best seen so far.
func (t *topCombos) offer(c combo) {
	if len(t.h) < t.n {
		heap.Push(t, c)
		return
	}
	if comboLess(t.beam, &c, &t.h[0]) {
		t.h[0] = c
		heap.Fix(t, 0)
	}
}

// freeCubes returns the cube positions the incoming child may take given the
// occupied positions of a partial configuration, appended to dst.
func (m *merger) freeCubes(child int, used uint64, dst []int) []int {
	dst = dst[:0]
	if !m.cfg.Reposition {
		return append(dst, m.childPos[child])
	}
	for p := range m.origins {
		if used&(1<<uint(p)) == 0 {
			dst = append(dst, p)
		}
	}
	return dst
}

// crossEdge is one directed flow between the incoming child of a merge step
// and an already-placed child. The list is extracted once per step so a
// combo evaluation touches exactly the flows it routes — no per-evaluation
// task-set marking.
type crossEdge struct {
	ci      int32 // local task index within the incoming child
	s       int32 // merge-order step of the placed child
	oi      int32 // local task index within that placed child
	toChild bool  // the flow runs placed -> child when set
	vol     float64
}

// crossEdgesFor lists the flows between the incoming child of this step and
// every placed child, in a deterministic order shared by the scorer and the
// materialization pass.
func (m *merger) crossEdgesFor(order []int, step int, childStep []int32) []crossEdge {
	child := order[step]
	var edges []crossEdge
	for li, t := range m.children[child].Tasks {
		for ni, d := range m.nbr[t] {
			if m.taskChild[d] < 0 {
				continue
			}
			s := childStep[m.taskChild[d]]
			if s < 0 || s >= int32(step) {
				continue
			}
			edges = append(edges, crossEdge{ci: int32(li), s: s, oi: m.taskLocal[d], vol: m.nvol[t][ni]})
		}
	}
	for s := 0; s < step; s++ {
		for oi, u := range m.children[order[s]].Tasks {
			for ni, d := range m.nbr[u] {
				if m.taskChild[d] != int32(child) {
					continue
				}
				edges = append(edges, crossEdge{ci: m.taskLocal[d], s: int32(s), oi: int32(oi), toChild: true, vol: m.nvol[u][ni]})
			}
		}
	}
	return edges
}

// addCrossEdgesDelta routes the step's cross flows for the child placed at
// cp (task local index -> parent rank) against the state's placements,
// through the worker's table. It stops early once dv's running peak
// (ResetOver) is above bound; pass +Inf to route every flow.
func (m *merger) addCrossEdgesDelta(tab *routing.Table, edges []crossEdge, st *state, cp []int, dv *routing.DeltaVec, bound float64) {
	for _, e := range edges {
		if dv.Peak() > bound {
			return
		}
		pp := st.pos[e.s][e.oi]
		if e.toChild {
			tab.AddLoadsDelta(pp, cp[e.ci], e.vol, dv)
		} else {
			tab.AddLoadsDelta(cp[e.ci], pp, e.vol, dv)
		}
	}
}

// screenRejects reports whether the combo that places the incoming child
// at cp against st has a peak above bound on the table's screen set S. It
// replays only the combo's deposits on S, in the full replay's order: ss,
// the child's internal-load snapshot restricted to S, then every cross
// flow's screen list (routing.Table.AddScreenDelta). A channel's total
// depends only on the deposits to it, in their order, so dv's values on S
// are those of the full replay, bit for bit, and its peak is a floor under
// the full peak: every combo it rejects, the full scorer rejects too. A
// walked pair ends the screen with false, and the combo is scored in full.
func (m *merger) screenRejects(tab *routing.Table, ss routing.Snapshot, edges []crossEdge, st *state, cp []int, dv *routing.DeltaVec, bound float64) bool {
	dv.ResetOver(st.loads, st.mcl)
	dv.AddSnapshot(ss, 0)
	for _, e := range edges {
		if dv.Peak() > bound {
			return true
		}
		src, dst := cp[e.ci], st.pos[e.s][e.oi]
		if e.toChild {
			src, dst = dst, src
		}
		if !tab.AddScreenDelta(src, dst, e.vol, dv) {
			return false
		}
	}
	return dv.Peak() > bound
}

func (m *merger) run() (*Block, error) {
	if !math.IsInf(m.bar, 1) && !sched.Expired(m.ctx) && m.floorAboveBar() {
		return m.barred(0), nil
	}
	order := m.mergeOrder()
	if err := sched.HardCancel(m.ctx); err != nil {
		return nil, err
	}
	workers := m.workers
	nd2 := m.parent.NumDims() * 2
	screening := m.parent.NumChannels() >= minScreenChans
	degraded := false
	var candGen, candKept, boundSkips, screenSkips int64
	defer func() {
		m.scope.CounterOr(telemetry.CtrBeamCandidates, ctrBeamCandidates).Add(candGen)
		m.scope.CounterOr(telemetry.CtrBeamKept, ctrBeamKept).Add(candKept)
		m.scope.CounterOr(telemetry.CtrBeamBoundSkips, ctrBoundSkips).Add(boundSkips)
		m.scope.CounterOr(telemetry.CtrBeamScreenSkips, ctrScreenSkips).Add(screenSkips)
	}()

	// The beam starts from the empty configuration; step 0 seeds it with
	// the first child's variants through the same scoring path as every
	// later step.
	beam := []*state{{loads: make([]float64, m.parent.NumChannels())}}
	childStep := make([]int32, len(m.children))
	for i := range childStep {
		childStep[i] = -1
	}

	for step := 0; step < len(order); step++ {
		if err := sched.HardCancel(m.ctx); err != nil {
			return nil, err
		}
		if sched.Expired(m.ctx) {
			beam = m.completeGreedy(beam, order, step, childStep)
			degraded = true
			break
		}
		child := order[step]
		tasks := m.children[child].Tasks
		nc := len(m.children[child].Candidates)
		if nc > m.cfg.ChildCandidates {
			nc = m.cfg.ChildCandidates
		}
		numOrients := len(m.orients)
		refCube := m.childPos[child]
		crossEdges := m.crossEdgesFor(order, step, childStep)
		childStep[child] = int32(step)

		// A step's combos are the (candidate, orientation) groups times
		// every (state, free cube position) pair.
		cubesOf := make([][]int, len(beam))
		groupSize := 0
		for si, st := range beam {
			cubesOf[si] = m.freeCubes(child, st.used, nil)
			groupSize += len(cubesOf[si])
		}
		groups := nc * numOrients

		// Pass 1: score the combos in parallel over contiguous group ranges.
		// A worker computes each group's reference placement and
		// internal-load snapshot once, then scores the group against every
		// (state, cube position), keeping its best BeamWidth combos in a
		// bounded heap whose worst MCL prunes the rest (package comment).
		// Once it has rejected screenAfter combos in full, it prescreens
		// each combo at the pinned cube on the channels its rejections
		// peaked on (screenRejects), on channel spaces of at least
		// minScreenChans.
		tops := make([][]combo, workers)
		skips := make([]int64, workers)
		screens := make([]int64, workers)
		sched.Run(workers, groups, func(w, glo, ghi int) {
			tab := m.table(w)
			defer tab.Flush()
			top := &topCombos{beam: beam, n: m.cfg.BeamWidth, bar: m.bar}
			var skipped, screened, rejected int64
			defer func() { tops[w], skips[w], screens[w] = top.h, skipped, screened }()
			refPos := make([]int, len(tasks))
			posBuf := make([]int, len(tasks))
			dv := routing.NewDeltaVec(m.parent.NumChannels())
			// ssnap is snap restricted to the table's screen set,
			// current while fresh is set.
			var snap, ssnap routing.Snapshot
			fresh := false
			for g := glo; g < ghi; g++ {
				if m.stopped() {
					return // the step is discarded; run() handles the context
				}
				c, o := g/numOrients, g%numOrients
				cand := m.children[child].Candidates[c]
				for i := range tasks {
					refPos[i] = m.taskParentPos(cand, m.orients[o], refCube, i)
				}
				dv.Reset()
				m.addFlowsDelta(tab, child, refPos, dv, math.Inf(1))
				snap = dv.Snapshot(snap)
				fresh = false
				for si, st := range beam {
					if st.mcl > top.bound() {
						skipped += int64(len(cubesOf[si]))
						continue
					}
					for _, q := range cubesOf[si] {
						bound := top.bound()
						rankOff := m.originRank[q] - m.originRank[refCube]
						if screening && rankOff == 0 && rejected >= screenAfter && !math.IsInf(bound, 1) {
							if !fresh {
								ssnap, fresh = tab.ScreenSnapshot(snap, ssnap), true
							}
							if m.screenRejects(tab, ssnap, crossEdges, st, refPos, dv, bound) {
								skipped++
								screened++
								continue
							}
						}
						dv.ResetOver(st.loads, st.mcl)
						dv.AddSnapshot(snap, rankOff*nd2)
						if dv.Peak() <= bound {
							for i := range refPos {
								posBuf[i] = refPos[i] + rankOff
							}
							m.addCrossEdgesDelta(tab, crossEdges, st, posBuf, dv, bound)
						}
						if dv.Peak() > bound {
							skipped++
							if screening {
								rejected++
								if ch := dv.PeakChan(); ch >= 0 && tab.Screen(ch) {
									fresh = false
								}
							}
							continue
						}
						top.offer(combo{
							si: int32(si), cand: int32(c), orient: int32(o),
							cube: int32(q), mcl: dv.Peak(),
						})
					}
				}
			}
		})
		if err := sched.HardCancel(m.ctx); err != nil {
			return nil, err
		}
		if sched.Expired(m.ctx) {
			// The step was cut short; its scores are partial. Discard them
			// and complete this and the remaining steps greedily.
			beam = m.completeGreedy(beam, order, step, childStep)
			degraded = true
			break
		}
		var kept []combo
		for w := range tops {
			kept = append(kept, tops[w]...)
			boundSkips += skips[w]
			screenSkips += screens[w]
		}
		sort.Slice(kept, func(a, b int) bool { return comboLess(beam, &kept[a], &kept[b]) })
		if len(kept) > m.cfg.BeamWidth {
			kept = kept[:m.cfg.BeamWidth]
		}
		candGen += int64(groups * groupSize)
		candKept += int64(len(kept))
		if len(kept) == 0 {
			// Every combo of the step is above the bar, so every state
			// built from this beam would be too.
			return m.barred(step + 1), nil
		}

		// Pass 2: materialize the winners. The winner's contribution is
		// re-accumulated at its actual cube position — bit-identical to the
		// translated snapshot used for scoring — and added onto the state
		// loads channel by channel. The last kept combo of each state takes
		// over the state's load vector instead of copying it, and the
		// vectors of states nothing was kept from are dropped first, so the
		// step never holds two beams' loads.
		last := make([]int, len(beam))
		for k, sc := range kept {
			last[sc.si] = k + 1
		}
		for si, st := range beam {
			if last[si] == 0 {
				st.loads = nil
			}
		}
		next := make([]*state, 0, len(kept))
		tab := m.table(0)
		dv := routing.NewDeltaVec(m.parent.NumChannels())
		for k, sc := range kept {
			st := beam[sc.si]
			cand := m.children[child].Candidates[sc.cand]
			p := m.placementAt(child, cand, m.orients[sc.orient], int(sc.cube))
			loads := st.loads
			if last[sc.si] == k+1 {
				st.loads = nil
			} else {
				loads = append([]float64(nil), loads...)
			}
			dv.Reset()
			m.addFlowsDelta(tab, child, p, dv, math.Inf(1))
			m.addCrossEdgesDelta(tab, crossEdges, st, p, dv, math.Inf(1))
			dv.AddTo(loads)
			choice := packChoice(int(sc.cube), int(sc.cand), int(sc.orient))
			next = append(next, st.extend(p, int(sc.cube), choice, loads, sc.mcl))
		}
		tab.Flush()
		beam = topN(next, m.cfg.BeamWidth)
	}
	return m.block(beam, order, degraded), nil
}

// block assembles the merged block from a final beam: tasks ascending, one
// candidate per state.
func (m *merger) block(beam []*state, order []int, degraded bool) *Block {
	var allTasks []int
	for _, c := range m.children {
		allTasks = append(allTasks, c.Tasks...)
	}
	sort.Ints(allTasks)
	taskIdx := make(map[int]int, len(allTasks))
	for i, t := range allTasks {
		taskIdx[t] = i
	}
	parentShape := make([]int, len(m.cubeShape))
	for d := range parentShape {
		parentShape[d] = m.cubeShape[d] * m.childShape[d]
	}
	out := &Block{Tasks: allTasks, Shape: parentShape, Degraded: degraded}
	for _, st := range beam {
		local := make(topology.Mapping, len(allTasks))
		for s := 0; s < len(order); s++ {
			tasks := m.children[order[s]].Tasks
			for i, t := range tasks {
				local[taskIdx[t]] = st.pos[s][i]
			}
		}
		out.Candidates = append(out.Candidates, Candidate{Local: local, MCL: st.mcl})
	}
	return out
}

// barred is the block of a merge the bar stopped after steps merge steps:
// the merged tasks and shape, and no candidate.
func (m *merger) barred(steps int) *Block {
	out := m.block(nil, nil, false)
	out.BarSteps = steps
	return out
}

// completeGreedy finishes an interrupted merge from the best surviving
// state: each remaining child (steps from..end of order) is absorbed with
// its first candidate, the identity orientation, and its pinned cube
// position (or the first free one when Reposition already took it). The
// result is a valid single-candidate beam without any further search. Each
// step deposits like pass 2's materialization; childStep is run's
// child -> merge step index, extended here as children are absorbed.
func (m *merger) completeGreedy(beam []*state, order []int, from int, childStep []int32) []*state {
	st := beam[0]
	tab := m.table(0)
	defer tab.Flush()
	dv := routing.NewDeltaVec(m.parent.NumChannels())
	for step := from; step < len(order); step++ {
		child := order[step]
		cube := m.childPos[child]
		if st.used&(1<<uint(cube)) != 0 {
			for p := range m.origins {
				if st.used&(1<<uint(p)) == 0 {
					cube = p
					break
				}
			}
		}
		cand := m.children[child].Candidates[0]
		p := m.placementAt(child, cand, m.orients[0], cube)
		crossEdges := m.crossEdgesFor(order, step, childStep)
		childStep[child] = int32(step)
		dv.ResetOver(st.loads, st.mcl)
		m.addFlowsDelta(tab, child, p, dv, math.Inf(1))
		m.addCrossEdgesDelta(tab, crossEdges, st, p, dv, math.Inf(1))
		loads := append([]float64(nil), st.loads...)
		dv.AddTo(loads)
		st = st.extend(p, cube, packChoice(cube, 0, 0), loads, dv.Peak())
	}
	return []*state{st}
}

// topN sorts states ascending by MCL — equal-MCL states ordered by their
// placement key, an explicit deterministic tie-break — and truncates.
func topN(states []*state, n int) []*state {
	sort.Slice(states, func(a, b int) bool {
		sa, sb := states[a], states[b]
		if sa.mcl < sb.mcl {
			return true
		}
		if sb.mcl < sa.mcl {
			return false
		}
		return lessKey(sa.key, sb.key)
	})
	if len(states) > n {
		states = states[:n]
	}
	return states
}
