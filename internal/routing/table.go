package routing

// Compiled per-pair routes for the leaf cube solvers.
//
// The annealing and exhaustive leaf solvers score one small cube thousands
// of times over a few hundred distinct (src, dst) pairs. AddLoads derives
// every flow afresh: pooled scratch, two coordinate decodes, prepareDirs,
// the stencil memo lookup, a channel-base table per tie combination and a
// counter flush. A Table does that work once per pair and from then on
// replays the pair as a flat list of channel deposits.
//
// On a 2-ary torus every differing dimension is a tie, so a pair that
// differs in d dimensions stores d*2^(2d-1) channel ids, and a full table
// over a 2^n torus holds (2n/5)*10^n: 16,000 ids on 2^4, 2.4M on 2^6, 28M
// on 2^7. Two constant budgets bound a table's memory whatever the cube; a
// pair they leave out is routed by AddLoads on every flow.

import "rahtm/internal/topology"

const (
	// maxTableChans bounds the channel ids one Table stores (4 bytes
	// each, 16 MB): every pair of a 2^6 torus, the root cube of a
	// 64k-process solve, fits. A pair first seen once the budget is spent
	// is not compiled.
	maxTableChans = 1 << 22
	// maxTablePairs bounds the dense pair index (40 bytes a pair, 5 MB).
	// A topology with more ordered pairs gets no index, and every flow
	// takes AddLoads; a 2-ary cube that large has more than
	// maxStencilDims dimensions, so none of its pairs has a stencil.
	maxTablePairs = 1 << 17
)

// Table is a compiled route table over one topology. On its first flow a
// (src, dst) pair is resolved exactly as AddLoads routes it: the stencil,
// the tie-combination count and the channel id of every deposit, tie
// combinations in mask order and cells in stencil order. Later flows
// replay those deposits, so the loads are bit-identical to AddLoads for
// either sign of vol. Pairs without a cacheable stencil, and pairs beyond
// the table's budgets, are routed by AddLoads on every flow.
//
// Replayed stencil hits are counted on the table and reach the evaluator's
// counters at Flush. A Table is not safe for concurrent use; a solver
// builds one per call and flushes it when it returns.
type Table struct {
	t      *topology.Torus
	alg    MinimalAdaptive
	n      int
	routes []route // indexed src*n+dst; nil beyond maxTablePairs
	free   int     // channel ids the table may still store
	nhits  int64
}

// route is one compiled pair: nc tie combinations, each a run of
// len(st.fracs) channel ids in chans. nc == 0 marks a pair not compiled
// yet, a nil st one routed by AddLoads.
type route struct {
	st    *stencil
	nc    int32
	chans []int32
}

// Table returns an empty route table over t. Its stencil accounting goes
// where a's does: to a's scope when WithScope gave it one.
func (a MinimalAdaptive) Table(t *topology.Torus) *Table {
	n := t.N()
	tb := &Table{t: t, alg: a, n: n, free: maxTableChans}
	if n*n <= maxTablePairs {
		tb.routes = make([]route, n*n)
	}
	return tb
}

// AddLoads routes vol units from src to dst on the table's topology into
// loads, depositing exactly what MinimalAdaptive.AddLoads deposits.
func (tb *Table) AddLoads(src, dst int, vol float64, loads []float64) {
	if src == dst || vol == 0 {
		return
	}
	if tb.routes == nil {
		tb.alg.AddLoads(tb.t, src, dst, vol, loads)
		return
	}
	r := &tb.routes[src*tb.n+dst]
	if r.nc == 0 {
		tb.compile(r, src, dst)
	}
	if r.st == nil {
		tb.alg.AddLoads(tb.t, src, dst, vol, loads)
		return
	}
	tb.nhits += int64(r.nc)
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

// compile resolves the pair src→dst into r with AddLoads' own steps,
// leaving r.st nil when the pair has no stencil or its channel ids do not
// fit the remaining budget.
func (tb *Table) compile(r *route, src, dst int) {
	t := tb.t
	sc := getScratch(t.NumDims())
	defer putScratch(sc)
	cs := t.CoordOf(src, sc.cs)
	cd := t.CoordOf(dst, sc.cd)
	nc := prepareDirs(t, cs, cd, sc)
	r.nc = int32(nc)
	s := sc.stencilFor(sc.dists)
	if s == nil || nc*len(s.fracs) > tb.free {
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

// Flush adds the stencil hits replayed since the last Flush to the
// evaluator's hit counter, as AddLoads' own per-call flush would have.
func (tb *Table) Flush() {
	sc := getScratch(tb.t.NumDims())
	sc.nhits, tb.nhits = tb.nhits, 0
	sc.flushStencil(tb.alg)
	putScratch(sc)
}
