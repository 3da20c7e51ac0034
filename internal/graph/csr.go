package graph

import (
	"fmt"
	"math"
	"slices"
	"sort"

	"rahtm/internal/telemetry"
)

// ctrGraphBuild counts every Comm brought into existence: built, read or
// derived.
var ctrGraphBuild = telemetry.Default.Counter(telemetry.CtrGraphBuild)

// edge is one flow as added or read, before compilation.
type edge struct {
	src, dst int32
	vol      float64
}

// Build compiles the traffic added so far into a Comm. The builder stays
// usable: later calls add to what the next Build compiles.
//
// Two stable counting sorts, by destination and then by source, order the
// edges by (src, dst) in O(edges + vertices) and keep the edges of one
// pair in call order. Volumes added to the same edge are summed in that
// order, the order the map-backed builder's += summed them in.
func (b *Builder) Build() *Comm {
	if b.m > math.MaxInt32 {
		panic("graph: edge count overflows the CSR index")
	}
	n := b.n
	// Histograms shifted by one, so their prefix sums are start offsets.
	dstPtr := make([]int32, n+1)
	rowPtr := make([]int32, n+1)
	for _, c := range b.chunks {
		for _, e := range c {
			dstPtr[e.dst+1]++
			rowPtr[e.src+1]++
		}
	}
	for v := 0; v < n; v++ {
		dstPtr[v+1] += dstPtr[v]
		rowPtr[v+1] += rowPtr[v]
	}
	// Pass 1: sources and volumes bucketed by destination, in call order.
	next := slices.Clone(dstPtr[:n])
	srcs := make([]int32, b.m)
	vols := make([]float64, b.m)
	for _, c := range b.chunks {
		for _, e := range c {
			k := next[e.dst]
			srcs[k], vols[k] = e.src, e.vol
			next[e.dst]++
		}
	}
	// Pass 2: the buckets, in destination order, scattered into rows.
	copy(next, rowPtr)
	colIdx := make([]int32, b.m)
	vol := make([]float64, b.m)
	for d := int32(0); d < int32(n); d++ {
		for j := dstPtr[d]; j < dstPtr[d+1]; j++ {
			k := next[srcs[j]]
			colIdx[k], vol[k] = d, vols[j]
			next[srcs[j]]++
		}
	}
	// Sum each run of equal columns into its first entry, compacting the
	// rows in place.
	w, lo := int32(0), int32(0)
	for s := 1; s <= n; s++ {
		start, hi := w, rowPtr[s]
		for k := lo; k < hi; k++ {
			if w > start && colIdx[w-1] == colIdx[k] {
				vol[w-1] += vol[k]
				continue
			}
			colIdx[w], vol[w] = colIdx[k], vol[k]
			w++
		}
		rowPtr[s], lo = w, hi
	}
	return newCSR(n, rowPtr, colIdx[:w], vol[:w])
}

// newCSR wraps compiled CSR arrays (columns ascending within each row) in
// a graph and caches its volume aggregates: each out-volume summed along
// its row, the total in one row-major pass.
func newCSR(n int, rowPtr, colIdx []int32, vol []float64) *Comm {
	ctrGraphBuild.Inc()
	outVol := make([]float64, n)
	for s := 0; s < n; s++ {
		sum := 0.0
		for k := rowPtr[s]; k < rowPtr[s+1]; k++ {
			sum += vol[k]
		}
		outVol[s] = sum
	}
	tot := 0.0
	for _, v := range vol {
		tot += v
	}
	return &Comm{n: n, rowPtr: rowPtr, colIdx: colIdx, vol: vol, outVol: outVol, totVol: tot}
}

// Coarsen merges vertices according to assign (len N, values in [0, parts))
// and returns the cluster-level graph: volume between clusters a != b is the
// sum of volumes between their members; intra-cluster volume is dropped
// (it becomes on-node shared-memory traffic). Also returns the total volume
// that became intra-cluster, the quantity Phase 1 tiling minimizes the
// complement of.
//
// The float sums run in fixed orders, in two passes. Pass A accumulates the
// intra-cluster volume in global (src, dst) order. Pass B builds each
// coarse row by scanning the cluster's members in ascending fine id,
// accumulating into a dense per-cluster scratch, so the contributions to a
// coarse pair (cs, cd) arrive in (src, dst) order too.
func (g *Comm) Coarsen(assign []int, parts int) (*Comm, float64) {
	if len(assign) != g.n {
		panic("graph: assignment length mismatch")
	}
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
	return newCSR(parts, rowPtr, colIdx, vol), intra
}

type int32Slice []int32

func (p int32Slice) Len() int           { return len(p) }
func (p int32Slice) Less(i, j int) bool { return p[i] < p[j] }
func (p int32Slice) Swap(i, j int)      { p[i], p[j] = p[j], p[i] }

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

// InducedSubgraph returns the subgraph over the given vertices (in the given
// order; result vertex i corresponds to verts[i]), keeping only edges with
// both endpoints inside. The second return value maps original -> local ids.
func (g *Comm) InducedSubgraph(verts []int) (*Comm, map[int]int) {
	local := make(map[int]int, len(verts))
	localOf := make([]int32, g.n)
	for i := range localOf {
		localOf[i] = -1
	}
	for i, v := range verts {
		check(v, g.n)
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
	return newCSR(len(verts), rowPtr, colIdx, vol), local
}

// Scale returns a copy with every volume multiplied by f (> 0). Products
// that underflow to zero are dropped, as AddTraffic drops them.
func (g *Comm) Scale(f float64) *Comm {
	if f <= 0 {
		panic("graph: non-positive scale factor")
	}
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
	return newCSR(g.n, rowPtr, colIdx, vol)
}
