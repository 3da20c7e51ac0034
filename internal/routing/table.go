package routing

// Route tables: one worker's minimal-adaptive evaluator.
//
// A Table owns one scratch — coordinate buffers, the stencil memo and the
// stencil hit/miss counts — so a worker that routes many flows pays no
// pool round trip and no counter flush per flow; Flush adds the counts
// once. The beam merger's scorers route sparse flows through it
// (AddLoadsDelta), one table per worker goroutine.
//
// Dense flows (AddLoads) are compiled per (src, dst) pair. The annealing
// and exhaustive leaf solvers score one small cube thousands of times over
// a few hundred distinct pairs; a pair's first flow resolves its stencil,
// tie-combination count and channel ids, and later flows replay those
// deposits as a flat list.
//
// On a 2-ary torus every differing dimension is a tie, so a pair that
// differs in d dimensions stores d*2^(2d-1) channel ids, and a full table
// over a 2^n torus holds (2n/5)*10^n: 16,000 ids on 2^4, 2.4M on 2^6, 28M
// on 2^7. Two constant budgets bound a table's memory whatever the cube; a
// pair they leave out is walked afresh on every flow.

import "rahtm/internal/topology"

const (
	// maxTableChans bounds the channel ids one Table stores (4 bytes
	// each, 16 MB): every pair of a 2^6 torus, the root cube of a
	// 64k-process solve, fits. A pair first seen once the budget is spent
	// is not compiled.
	maxTableChans = 1 << 22
	// maxTablePairs bounds the dense pair index (40 bytes a pair, 5 MB).
	// A topology with more ordered pairs gets no index, and every flow is
	// walked; a 2-ary cube that large has more than maxStencilDims
	// dimensions, so none of its pairs has a cached stencil.
	maxTablePairs = 1 << 17
)

// Table is a minimal-adaptive evaluator over one topology. Its loads are
// bit-identical to MinimalAdaptive.AddLoads for either sign of vol, and
// it counts the same stencil hits and misses. On its first dense flow a
// (src, dst) pair is resolved exactly as the flow walk routes it: the
// stencil, the tie-combination count and the channel id of every deposit,
// tie combinations in mask order and cells in stencil order. Later flows
// replay those deposits. Pairs without a cached stencil, pairs beyond the
// table's budgets, and every sparse flow are walked.
//
// Counts reach the evaluator's counters at Flush. A Table is not safe for
// concurrent use: each worker takes its own and flushes it when it is
// done.
type Table struct {
	t   *topology.Torus
	alg MinimalAdaptive
	n   int
	// routes is the pair index, src*n+dst, allocated on the first dense
	// flow; it stays nil beyond maxTablePairs.
	routes []route
	free   int // channel ids the table may still store
	sc     scratch
}

// route is one compiled pair: nc tie combinations, each a run of
// len(st.fracs) channel ids in chans. nc == 0 marks a pair not compiled
// yet, a nil st one that is walked.
type route struct {
	st    *stencil
	nc    int32
	chans []int32
}

// Table returns an empty route table over t. Its stencil accounting goes
// where a's does: to a's scope when WithScope gave it one.
func (a MinimalAdaptive) Table(t *topology.Torus) *Table {
	tb := &Table{t: t, alg: a, n: t.N(), free: maxTableChans}
	tb.sc.size(t.NumDims())
	return tb
}

// AddLoads routes vol units from src to dst on the table's topology into
// loads, depositing exactly what MinimalAdaptive.AddLoads deposits.
func (tb *Table) AddLoads(src, dst int, vol float64, loads []float64) {
	if src == dst || vol == 0 {
		return
	}
	if tb.routes == nil && tb.n*tb.n <= maxTablePairs {
		tb.routes = make([]route, tb.n*tb.n)
	}
	if tb.routes == nil {
		tb.sc.walk(tb.t, src, dst, vol, loads, nil)
		return
	}
	r := &tb.routes[src*tb.n+dst]
	if r.nc == 0 {
		tb.compile(r, src, dst)
	}
	if r.st == nil {
		tb.sc.walk(tb.t, src, dst, vol, loads, nil)
		return
	}
	tb.sc.nhits += int64(r.nc)
	// The product and the order of stencil.apply, combination by
	// combination.
	comboVol := vol / float64(r.nc)
	fracs := r.st.fracs
	for c := r.chans; len(c) > 0; c = c[len(fracs):] {
		c := c[:len(fracs)]
		for i, f := range fracs {
			loads[c[i]] += f * comboVol
		}
	}
}

// AddLoadsDelta is AddLoads depositing into a DeltaVec: the same stencil
// decisions and counts, the same values in the same order as AddLoads
// deposits into a zeroed dense vector, so sparse and dense evaluation
// agree bit for bit. A negative vol subtracts.
func (tb *Table) AddLoadsDelta(src, dst int, vol float64, dv *DeltaVec) {
	if src == dst || vol == 0 {
		return
	}
	tb.sc.walk(tb.t, src, dst, vol, nil, dv)
}

// compile resolves the pair src→dst into r with the flow walk's own
// steps, leaving r.st nil when the pair has no cached stencil or its
// channel ids do not fit the remaining budget.
func (tb *Table) compile(r *route, src, dst int) {
	t, sc := tb.t, &tb.sc
	cs := t.CoordOf(src, sc.cs)
	cd := t.CoordOf(dst, sc.cd)
	nc := prepareDirs(t, cs, cd, sc)
	r.nc = int32(nc)
	s, cached := sc.stencilFor(sc.dists)
	if !cached || nc*len(s.fracs) > tb.free {
		return
	}
	tb.free -= nc * len(s.fracs)
	r.st = s
	r.chans = make([]int32, 0, nc*len(s.fracs))
	for mask := 0; mask < nc; mask++ {
		sc.setTies(mask)
		r.chans = append(r.chans, s.chans(t, cs, sc.dirs, sc)...)
	}
}

// Flush adds the stencil hits and misses counted since the last Flush to
// the evaluator's counters.
func (tb *Table) Flush() { tb.sc.flushStencil(tb.alg) }
