// Package routing computes per-channel loads and the maximum channel load
// (MCL) metric for communication patterns mapped onto torus/mesh topologies.
//
// The central model is the paper's approximation of Blue Gene/Q's minimal
// adaptive routing (MAR): an oblivious routing that spreads each flow
// uniformly over *all* minimal (Manhattan) paths (§III-D of the RAHTM
// paper, following Towles & Dally's channel-load analysis for oblivious
// routing). Uniform-over-paths is computed exactly — without enumerating
// paths — by a dynamic program that, at every intermediate node, splits the
// remaining flow proportionally to the remaining distance in each
// dimension; that split induces exactly the uniform distribution over
// minimal paths. The DP runs once per distance vector, into a stencil that
// every flow with that displacement walks (stencil.go); it is the
// package's only implementation of the model. Two evaluators route
// through it: MinimalAdaptive.AddLoads for one-off evaluations, and Table,
// one worker's evaluator, which owns its scratch and stencil counts and
// replays compiled per-pair routes (table.go) into a dense load vector or
// a sparse DeltaVec (delta.go): the leaf solvers and the beam merger's
// scorers route every flow through a Table.
//
// Dimension-order routing (DOR) is provided as the routing-oblivious
// comparator.
package routing

import (
	"fmt"
	"math"

	"rahtm/internal/graph"
	"rahtm/internal/telemetry"
	"rahtm/internal/topology"
)

// Algorithm turns a single flow into per-channel loads.
type Algorithm interface {
	// AddLoads routes vol units from node src to node dst on t, adding the
	// resulting channel loads into loads (len t.NumChannels()).
	AddLoads(t *topology.Torus, src, dst int, vol float64, loads []float64)
	// Name identifies the algorithm in reports.
	Name() string
}

// MinimalAdaptive is the balanced all-minimal-paths oblivious approximation
// of BG/Q's minimal adaptive routing. The zero value is ready to use, and
// routes through a process-wide displacement-stencil cache (see stencil.go)
// that memoizes the translation-invariant per-channel load fractions of
// each distance vector. The cache is safe for concurrent use.
type MinimalAdaptive struct {
	// hits/misses, when set by WithScope, receive the stencil-cache
	// accounting instead of the process-wide counters, attributing the
	// evaluator's work to one request.
	hits, misses *telemetry.Counter
}

// Name implements Algorithm.
func (MinimalAdaptive) Name() string { return "minimal-adaptive" }

// WithScope returns a copy of a whose stencil-cache hit/miss accounting
// lands in scope's request-local registry instead of the process-wide
// counters (rahtm.Solve merges the request's delta back into the global
// registry at request end). A nil scope returns a unchanged, so call sites
// can pass telemetry.ScopeFrom(ctx) unconditionally.
func (a MinimalAdaptive) WithScope(scope *telemetry.Scope) MinimalAdaptive {
	if scope == nil {
		return a
	}
	a.hits = scope.Counter(telemetry.CtrStencilHits)
	a.misses = scope.Counter(telemetry.CtrStencilMisses)
	return a
}

// AddLoads implements Algorithm. A negative vol subtracts the flow's loads
// — incremental evaluators use this to retract a previously added flow.
// It is safe for concurrent use with distinct loads vectors.
func (a MinimalAdaptive) AddLoads(t *topology.Torus, src, dst int, vol float64, loads []float64) {
	if src == dst || vol == 0 {
		return
	}
	sc := scratchPool.Get().(*scratch)
	sc.size(t.NumDims())
	sc.walk(t, src, dst, vol, loads, nil)
	sc.flushStencil(a)
	scratchPool.Put(sc)
}

// walk is the one flow walk of the minimal-adaptive evaluators:
// prepareDirs, the box's stencil, and one stencil walk (stencil.chans) per
// tie combination, depositing into loads, or into dv when dv is non-nil.
// The box counts one stencil hit or miss per combination on sc.
func (sc *scratch) walk(t *topology.Torus, src, dst int, vol float64, loads []float64, dv *DeltaVec) {
	cs := t.CoordOf(src, sc.cs)
	cd := t.CoordOf(dst, sc.cd)
	numCombos := prepareDirs(t, cs, cd, sc)
	s, cached := sc.stencilFor(sc.dists)
	if cached {
		sc.nhits += int64(numCombos)
	} else {
		sc.nmisses += int64(numCombos)
	}
	comboVol := vol / float64(numCombos)
	for mask := 0; mask < numCombos; mask++ {
		sc.setTies(mask)
		chs := s.chans(t, cs, sc.dirs, sc)
		if dv != nil {
			for i, ch := range chs {
				dv.Add(int(ch), s.fracs[i]*comboVol)
			}
		} else {
			for i, ch := range chs {
				loads[ch] += s.fracs[i] * comboVol
			}
		}
	}
}

// prepareDirs fills sc.dirs/sc.dists with the per-dimension minimal
// direction choices for the flow cs→cd and records tied dimensions in
// sc.ties. Ties (torus distance exactly k/2) admit both directions; every
// combination of choices contributes the same number of minimal paths, so
// combinations weigh equally. Returns the number of direction combinations
// (2^len(ties)). The flow walk and the compiled routes (Table) both
// start here, so their routing decisions cannot drift apart.
func prepareDirs(t *topology.Torus, cs, cd []int, sc *scratch) int {
	dirs, dists := sc.dirs, sc.dists
	sc.ties = sc.ties[:0]
	numCombos := 1
	for d := 0; d < t.NumDims(); d++ {
		dirs[d], dists[d] = 0, 0
		x, y := cs[d], cd[d]
		if x == y {
			continue
		}
		k := t.Dim(d)
		if !t.Wrap(d) {
			if y > x {
				dirs[d], dists[d] = topology.Plus, y-x
			} else {
				dirs[d], dists[d] = topology.Minus, x-y
			}
			continue
		}
		plus := ((y-x)%k + k) % k
		minus := k - plus
		switch {
		case plus < minus:
			dirs[d], dists[d] = topology.Plus, plus
		case minus < plus:
			dirs[d], dists[d] = topology.Minus, minus
		default:
			// Tie: both directions are minimal; the caller enumerates.
			dirs[d], dists[d] = topology.Plus, plus
			sc.ties = append(sc.ties, d)
			numCombos *= 2
		}
	}
	return numCombos
}

// DimOrder is deterministic dimension-order routing: the flow fully
// traverses each dimension in Order before the next. Ties on wrapped
// dimensions take the Plus direction. A nil Order means 0,1,2,....
type DimOrder struct {
	Order []int
}

// Name implements Algorithm.
func (r DimOrder) Name() string { return "dimension-order" }

// AddLoads implements Algorithm.
func (r DimOrder) AddLoads(t *topology.Torus, src, dst int, vol float64, loads []float64) {
	if src == dst || vol <= 0 {
		return
	}
	nd := t.NumDims()
	order := r.Order
	if order == nil {
		order = make([]int, nd)
		for i := range order {
			order[i] = i
		}
	}
	if len(order) != nd {
		panic(fmt.Sprintf("routing: DimOrder has %d dims, topology has %d", len(order), nd))
	}
	cs := t.CoordOf(src, nil)
	cd := t.CoordOf(dst, nil)
	cur := append([]int(nil), cs...)
	for _, d := range order {
		k := t.Dim(d)
		for cur[d] != cd[d] {
			dir := topology.Plus
			if t.Wrap(d) {
				plus := ((cd[d]-cur[d])%k + k) % k
				if k-plus < plus {
					dir = topology.Minus
				}
			} else if cd[d] < cur[d] {
				dir = topology.Minus
			}
			node := t.RankOf(cur)
			loads[t.ChannelID(node, d, dir)] += vol
			if dir == topology.Plus {
				cur[d] = (cur[d] + 1) % k
			} else {
				cur[d] = (cur[d] - 1 + k) % k
			}
		}
	}
}

// ChannelLoads routes every flow of g under mapping m with alg and returns
// the dense per-channel load vector. Tasks sharing a node exchange data
// through shared memory, contributing no network load.
func ChannelLoads(t *topology.Torus, g *graph.Comm, m topology.Mapping, alg Algorithm) []float64 {
	if len(m) != g.N() {
		panic(fmt.Sprintf("routing: mapping covers %d tasks, graph has %d", len(m), g.N()))
	}
	loads := make([]float64, t.NumChannels())
	g.EachFlow(func(s, d int, vol float64) {
		alg.AddLoads(t, m[s], m[d], vol, loads)
	})
	return loads
}

// MCL returns the maximum entry of a channel-load vector.
func MCL(loads []float64) float64 {
	max := 0.0
	for _, v := range loads {
		if v > max {
			max = v
		}
	}
	return max
}

// MaxChannelLoad is shorthand for MCL(ChannelLoads(...)).
func MaxChannelLoad(t *topology.Torus, g *graph.Comm, m topology.Mapping, alg Algorithm) float64 {
	return MCL(ChannelLoads(t, g, m, alg))
}

// NodeBound is a lower bound on the MCL of any placement of g's tasks on
// t with at most one task per node, under any routing: every unit a task
// sends leaves its node, and every unit it receives enters it, on one of
// the node's channels, so some channel carries at least the task's out-
// or in-volume divided by their number. NodeBound returns the largest
// task out-volume or in-volume divided by the most channels that leave
// any node: n on a 2-ary n-mesh, 2n on a 2-ary n-torus (its double-wide
// links) or a k-ary n-torus. It is 0 on a topology without channels.
func NodeBound(t *topology.Torus, g *graph.Comm) float64 {
	deg := 0
	for d := 0; d < t.NumDims(); d++ {
		switch k := t.Dim(d); {
		case k <= 1:
		case k == 2 && !t.Wrap(d):
			deg++
		default:
			deg += 2
		}
	}
	if deg == 0 {
		return 0
	}
	out := make([]float64, g.N())
	in := make([]float64, g.N())
	g.EachFlow(func(s, d int, vol float64) {
		if s != d {
			out[s] += vol
			in[d] += vol
		}
	})
	max := 0.0
	for v := range out {
		max = math.Max(max, math.Max(out[v], in[v]))
	}
	return max / float64(deg)
}

// TotalLoad returns the sum of a channel-load vector; divided by volume it
// is the average hop count (a hop-bytes analogue).
func TotalLoad(loads []float64) float64 {
	tot := 0.0
	for _, v := range loads {
		tot += v
	}
	return tot
}

// LoadStats summarizes a channel-load vector over physically present links.
type LoadStats struct {
	MCL     float64 // maximum channel load
	Mean    float64 // mean load over physical links
	Total   float64 // sum of loads
	NumUsed int     // channels with non-zero load
}

// Stats computes LoadStats for the load vector on t.
func Stats(t *topology.Torus, loads []float64) LoadStats {
	st := LoadStats{}
	links := 0
	for ch, v := range loads {
		node, dim, dir := t.DecodeChannel(ch)
		if !t.ChannelExists(node, dim, dir) {
			continue
		}
		links++
		st.Total += v
		if v > st.MCL {
			st.MCL = v
		}
		if v > 0 {
			st.NumUsed++
		}
	}
	if links > 0 {
		st.Mean = st.Total / float64(links)
	}
	if math.IsNaN(st.Mean) {
		st.Mean = 0
	}
	return st
}
