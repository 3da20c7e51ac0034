package hiermap

import (
	"rahtm/internal/graph"
	"rahtm/internal/routing"
	"rahtm/internal/topology"
)

// incEval maintains the channel-load vector of a placement and updates it
// incrementally under swap moves: only flows incident to the two swapped
// clusters are re-routed, instead of the whole graph. This is the §VI
// "reduce the mapping computation" optimization; it turns each annealing
// step from O(flows) into O(degree) route computations.
type incEval struct {
	cube    *topology.Torus
	flows   []graph.Flow
	byTask  [][]int // task -> indices into flows touching it
	loads   []float64
	cur     topology.Mapping
	tab     *routing.Table
	touched []int // scratch: flow indices affected by the current move
	seen    []int // scratch: generation marks per flow
	gen     int
	moves   int // accepted/attempted moves since the last full rebuild
}

// newIncEval builds the evaluator; tab routes the flows over cube, so a
// table built from a request-scoped evaluator
// (routing.MinimalAdaptive.WithScope) attributes the annealing loop's
// stencil traffic to its request.
func newIncEval(g *graph.Comm, cube *topology.Torus, start topology.Mapping, tab *routing.Table) *incEval {
	flows := g.Flows()
	byTask := make([][]int, g.N())
	for idx, f := range flows {
		byTask[f.Src] = append(byTask[f.Src], idx)
		if f.Dst != f.Src {
			byTask[f.Dst] = append(byTask[f.Dst], idx)
		}
	}
	e := &incEval{
		cube:   cube,
		flows:  flows,
		byTask: byTask,
		cur:    start.Clone(),
		tab:    tab,
		seen:   make([]int, len(flows)),
	}
	e.rebuild()
	return e
}

// rebuild recomputes the load vector from scratch (also used periodically
// to cancel floating-point drift from incremental updates).
func (e *incEval) rebuild() {
	if e.loads == nil {
		e.loads = make([]float64, e.cube.NumChannels())
	}
	routeAll(e.tab, e.flows, e.cur, e.loads)
	e.moves = 0
}

// routeAll zeroes loads, routes every flow under mapping m through tab and
// returns the MCL. With flows in g.EachFlow order (g.Flows) the loads, and
// so the MCL, are bit-identical to routing.ChannelLoads under
// MinimalAdaptive.
func routeAll(tab *routing.Table, flows []graph.Flow, m topology.Mapping, loads []float64) float64 {
	for i := range loads {
		loads[i] = 0
	}
	for _, f := range flows {
		tab.AddLoads(m[f.Src], m[f.Dst], f.Vol, loads)
	}
	return routing.MCL(loads)
}

// mcl returns the current maximum channel load.
func (e *incEval) mcl() float64 {
	return routing.MCL(e.loads)
}

// affected collects the distinct flows incident to tasks i or j.
func (e *incEval) affected(i, j int) []int {
	e.gen++
	e.touched = e.touched[:0]
	for _, lists := range [2][]int{e.byTask[i], e.byTask[j]} {
		for _, idx := range lists {
			if e.seen[idx] == e.gen {
				continue
			}
			e.seen[idx] = e.gen
			e.touched = append(e.touched, idx)
		}
	}
	return e.touched
}

// swap applies the move (i, j) incrementally and returns the new MCL.
func (e *incEval) swap(i, j int) float64 {
	aff := e.affected(i, j)
	for _, idx := range aff {
		f := e.flows[idx]
		e.tab.AddLoads(e.cur[f.Src], e.cur[f.Dst], -f.Vol, e.loads)
	}
	e.cur[i], e.cur[j] = e.cur[j], e.cur[i]
	for _, idx := range aff {
		f := e.flows[idx]
		e.tab.AddLoads(e.cur[f.Src], e.cur[f.Dst], f.Vol, e.loads)
	}
	e.moves++
	if e.moves >= 8192 {
		e.rebuild()
	}
	return e.mcl()
}
