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
// replays compiled per-pair routes (table.go).
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
// prepareDirs, the box's stencil, and one stencil walk per tie
// combination, depositing into loads, or into dv when dv is non-nil. The
// box counts one stencil hit or miss per combination on sc.
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
		if dv != nil {
			s.applyDelta(t, cs, sc.dirs, comboVol, dv, sc)
		} else {
			s.apply(t, cs, sc.dirs, comboVol, loads, sc)
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
