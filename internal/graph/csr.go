package graph

import (
	"fmt"
	"math"
	"sort"

	"rahtm/internal/telemetry"
)

// Construction telemetry: builds count every Comm brought into existence
// (builder or frozen derived result); freezes count CSR compilations.
var (
	ctrGraphBuild  = telemetry.Default.Counter(telemetry.CtrGraphBuild)
	ctrGraphFreeze = telemetry.Default.Counter(telemetry.CtrGraphFreeze)
)

// Freeze compiles the adjacency maps into the CSR form — sorted
// rowPtr/colIdx/vol arrays plus cached per-vertex out-volumes and the total
// volume — and releases the maps. After Freeze the graph is immutable:
// AddTraffic panics, every traversal is an allocation-free linear scan, and
// derived operations (Coarsen, InducedSubgraph, Clone, Scale) emit frozen
// CSR results directly. Freeze is idempotent and returns
// the receiver for chaining.
//
// Determinism: the CSR rows are compiled in ascending (src, dst) order — the
// same order sortedDsts imposes on every observable map-path iteration — so
// all float accumulations (out-volumes, totals, coarsening sums) are
// bit-identical between the builder and frozen forms.
func (g *Comm) Freeze() *Comm {
	if g.frozen {
		return g
	}
	m := g.NumEdges()
	if m > math.MaxInt32 {
		panic("graph: edge count overflows CSR index")
	}
	rowPtr := make([]int32, g.n+1)
	colIdx := make([]int32, 0, m)
	vol := make([]float64, 0, m)
	for s, a := range g.adj {
		for _, d := range sortedDsts(a) {
			colIdx = append(colIdx, int32(d))
			vol = append(vol, a[d])
		}
		rowPtr[s+1] = int32(len(colIdx))
	}
	g.install(rowPtr, colIdx, vol)
	return g
}

// Frozen reports whether the graph has been compiled to CSR form.
func (g *Comm) Frozen() bool { return g.frozen }

// install adopts compiled CSR arrays (rows must be ascending) and caches the
// volume aggregates. Out-volumes are accumulated per row and the total in one
// global row-major pass — exactly the orders the map path uses in OutVolume
// and TotalVolume — so the cached bits match what the builder would return.
func (g *Comm) install(rowPtr, colIdx []int32, vol []float64) {
	outVol := make([]float64, g.n)
	for s := 0; s < g.n; s++ {
		sum := 0.0
		for k := rowPtr[s]; k < rowPtr[s+1]; k++ {
			sum += vol[k]
		}
		outVol[s] = sum
	}
	tot := 0.0
	for k := range vol {
		tot += vol[k]
	}
	g.rowPtr, g.colIdx, g.vol = rowPtr, colIdx, vol
	g.outVol, g.totVol = outVol, tot
	g.adj = nil
	g.frozen = true
	ctrGraphFreeze.Inc()
}

// newFrozen wraps pre-compiled CSR arrays in a frozen graph.
func newFrozen(n int, rowPtr, colIdx []int32, vol []float64) *Comm {
	ctrGraphBuild.Inc()
	out := &Comm{n: n}
	out.install(rowPtr, colIdx, vol)
	return out
}

// row returns the CSR slices for vertex s. Frozen graphs only.
func (g *Comm) row(s int) ([]int32, []float64) {
	b, e := g.rowPtr[s], g.rowPtr[s+1]
	return g.colIdx[b:e], g.vol[b:e]
}

// rowSorter sorts a CSR row's destination/volume pairs by destination.
// Destinations within a row are unique, so the order of equal keys never
// arises and the result is independent of the sort algorithm.
type rowSorter struct {
	d []int32
	v []float64
}

func (r rowSorter) Len() int           { return len(r.d) }
func (r rowSorter) Less(i, j int) bool { return r.d[i] < r.d[j] }
func (r rowSorter) Swap(i, j int) {
	r.d[i], r.d[j] = r.d[j], r.d[i]
	r.v[i], r.v[j] = r.v[j], r.v[i]
}

// coarsenFrozen is Coarsen over the CSR form. Two passes keep the float sums
// bit-identical to the map path:
//
// Pass A accumulates the intra-cluster volume in global (src, dst) order —
// the map path interleaves intra contributions across clusters in exactly
// that order, and float addition is order-sensitive.
//
// Pass B builds each coarse row by scanning the cluster's members in
// ascending fine id (rows ascending by construction), accumulating into a
// dense per-cluster scratch. For a fixed coarse pair (cs, cd) the fine
// contributions arrive in lexicographic (src, dst) order — the same order the
// map path's AddTraffic calls accumulate that pair.
func (g *Comm) coarsenFrozen(assign []int, parts int) (*Comm, float64) {
	intra := 0.0
	for s := 0; s < g.n; s++ {
		cs := assign[s]
		if cs < 0 || cs >= parts {
			panic(fmt.Sprintf("graph: assignment %d for vertex %d out of range", cs, s))
		}
		for k := g.rowPtr[s]; k < g.rowPtr[s+1]; k++ {
			if assign[g.colIdx[k]] == cs {
				intra += g.vol[k]
			}
		}
	}
	members := make([][]int32, parts)
	for s := 0; s < g.n; s++ {
		members[assign[s]] = append(members[assign[s]], int32(s))
	}
	var (
		rowPtr  = make([]int32, parts+1)
		colIdx  []int32
		vol     []float64
		acc     = make([]float64, parts)
		mark    = make([]int, parts) // mark[cd] == cs+1 when cd is live for row cs
		touched = make([]int32, 0, parts)
	)
	for cs := 0; cs < parts; cs++ {
		touched = touched[:0]
		for _, s := range members[cs] {
			for k := g.rowPtr[s]; k < g.rowPtr[s+1]; k++ {
				cd := assign[g.colIdx[k]]
				if cd == cs {
					continue
				}
				if mark[cd] != cs+1 {
					mark[cd] = cs + 1
					acc[cd] = 0
					touched = append(touched, int32(cd))
				}
				acc[cd] += g.vol[k]
			}
		}
		sort.Sort(int32Slice(touched))
		for _, cd := range touched {
			colIdx = append(colIdx, cd)
			vol = append(vol, acc[cd])
		}
		rowPtr[cs+1] = int32(len(colIdx))
	}
	return newFrozen(parts, rowPtr, colIdx, vol), intra
}

type int32Slice []int32

func (p int32Slice) Len() int           { return len(p) }
func (p int32Slice) Less(i, j int) bool { return p[i] < p[j] }
func (p int32Slice) Swap(i, j int)      { p[i], p[j] = p[j], p[i] }

// inducedFrozen is InducedSubgraph over the CSR form. Each edge carries a
// single stored volume (no accumulation), so only the per-row sort order
// matters and the result is bit-identical to the map path by construction.
func (g *Comm) inducedFrozen(verts []int) (*Comm, map[int]int) {
	local := make(map[int]int, len(verts))
	localOf := make([]int32, g.n)
	for i := range localOf {
		localOf[i] = -1
	}
	for i, v := range verts {
		g.check(v)
		if localOf[v] >= 0 {
			panic("graph: duplicate vertex in InducedSubgraph")
		}
		localOf[v] = int32(i)
		local[v] = i
	}
	rowPtr := make([]int32, len(verts)+1)
	var (
		colIdx []int32
		vol    []float64
	)
	for i, v := range verts {
		start := len(colIdx)
		for k := g.rowPtr[v]; k < g.rowPtr[v+1]; k++ {
			if ld := localOf[g.colIdx[k]]; ld >= 0 {
				colIdx = append(colIdx, ld)
				vol = append(vol, g.vol[k])
			}
		}
		// verts may appear in any order, so local ids within the row are
		// not yet ascending.
		sort.Sort(rowSorter{colIdx[start:], vol[start:]})
		rowPtr[i+1] = int32(len(colIdx))
	}
	return newFrozen(len(verts), rowPtr, colIdx, vol), local
}

// cloneFrozen deep-copies a frozen graph, including the cached aggregates.
func (g *Comm) cloneFrozen() *Comm {
	ctrGraphBuild.Inc()
	ctrGraphFreeze.Inc()
	out := &Comm{
		n:      g.n,
		frozen: true,
		rowPtr: append([]int32(nil), g.rowPtr...),
		colIdx: append([]int32(nil), g.colIdx...),
		vol:    append([]float64(nil), g.vol...),
		outVol: append([]float64(nil), g.outVol...),
		totVol: g.totVol,
	}
	return out
}

// scaleFrozen is Scale over the CSR form, mirroring AddTraffic's drop of
// products that underflow to non-positive values.
func (g *Comm) scaleFrozen(f float64) *Comm {
	rowPtr := make([]int32, g.n+1)
	colIdx := make([]int32, 0, len(g.colIdx))
	vol := make([]float64, 0, len(g.vol))
	for s := 0; s < g.n; s++ {
		for k := g.rowPtr[s]; k < g.rowPtr[s+1]; k++ {
			nv := g.vol[k] * f
			if !(nv <= 0) {
				colIdx = append(colIdx, g.colIdx[k])
				vol = append(vol, nv)
			}
		}
		rowPtr[s+1] = int32(len(colIdx))
	}
	return newFrozen(g.n, rowPtr, colIdx, vol)
}
