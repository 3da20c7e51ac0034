// Package cluster implements Phase 1 of RAHTM: clustering the application
// communication graph, first by the concentration factor (processes per
// node) and then level by level into groups of 2^n matching the 2-ary
// n-cube hierarchy of the topology.
//
// The paper found that simple tile-shape search over a logical process grid
// (Figure 2) preserves communication structure better than sophisticated
// min-cut clustering, so tiling is the primary strategy; a heavy-edge
// greedy agglomeration is provided for communication graphs without grid
// structure.
package cluster

import (
	"fmt"
	"math"
	"sort"

	"rahtm/internal/graph"
)

// Result describes one clustering level.
type Result struct {
	Assign      []int       // fine vertex -> cluster id
	NumClusters int         // number of clusters produced
	Coarse      *graph.Comm // cluster-level communication graph
	IntraVolume float64     // volume absorbed inside clusters
	TileShape   []int       // chosen tile shape (nil for greedy clustering)
	GridDims    []int       // cluster-level grid (nil for greedy clustering)
}

// TileGrid clusters the vertices of g — assumed to be laid out row-major on
// a logical grid of shape gridDims — into tiles of exactly tileVol vertices.
// It searches every tile shape whose sides divide the grid and whose volume
// is tileVol, picking the one that maximizes intra-tile volume (equivalently
// minimizes inter-tile communication). Cluster ids are row-major tile
// indices, so the coarse graph remains a grid of shape gridDims/tile.
func TileGrid(g *graph.Comm, gridDims []int, tileVol int) (*Result, error) {
	n := 1
	for _, d := range gridDims {
		if d < 1 {
			return nil, fmt.Errorf("cluster: bad grid dimension %d", d)
		}
		n *= d
	}
	if n != g.N() {
		return nil, fmt.Errorf("cluster: grid %v has %d cells, graph has %d vertices", gridDims, n, g.N())
	}
	if tileVol < 1 || n%tileVol != 0 {
		return nil, fmt.Errorf("cluster: tile volume %d does not divide %d vertices", tileVol, n)
	}
	if tileVol == 1 {
		res := &Result{
			Assign:      identity(n),
			NumClusters: n,
			Coarse:      g,
			TileShape:   ones(len(gridDims)),
			GridDims:    append([]int(nil), gridDims...),
		}
		return res, nil
	}

	shapes := tileShapes(gridDims, tileVol)
	if len(shapes) == 0 {
		return nil, fmt.Errorf("cluster: no tile of volume %d fits grid %v", tileVol, gridDims)
	}
	var best *Result
	for _, shape := range shapes {
		assign, parts := tileAssignment(gridDims, shape)
		coarse, intra := g.Coarsen(assign, parts)
		if best == nil || intra > best.IntraVolume {
			gd := make([]int, len(gridDims))
			for d := range gd {
				gd[d] = gridDims[d] / shape[d]
			}
			best = &Result{
				Assign:      assign,
				NumClusters: parts,
				Coarse:      coarse,
				IntraVolume: intra,
				TileShape:   shape,
				GridDims:    gd,
			}
		}
	}
	return best, nil
}

// tileShapes enumerates every shape with product tileVol whose sides divide
// the grid, in deterministic order.
func tileShapes(gridDims []int, tileVol int) [][]int {
	var out [][]int
	shape := make([]int, len(gridDims))
	var rec func(d, rem int)
	rec = func(d, rem int) {
		if d == len(gridDims) {
			if rem == 1 {
				out = append(out, append([]int(nil), shape...))
			}
			return
		}
		for s := 1; s <= gridDims[d] && s <= rem; s++ {
			if gridDims[d]%s != 0 || rem%s != 0 {
				continue
			}
			shape[d] = s
			rec(d+1, rem/s)
		}
	}
	rec(0, tileVol)
	return out
}

// tileAssignment maps each grid cell to its row-major tile index.
func tileAssignment(gridDims, tile []int) ([]int, int) {
	nd := len(gridDims)
	tilesPerDim := make([]int, nd)
	parts := 1
	for d := 0; d < nd; d++ {
		tilesPerDim[d] = gridDims[d] / tile[d]
		parts *= tilesPerDim[d]
	}
	n := 1
	for _, d := range gridDims {
		n *= d
	}
	assign := make([]int, n)
	coord := make([]int, nd)
	for v := 0; v < n; v++ {
		// Decode v row-major into coord.
		r := v
		for d := 0; d < nd; d++ {
			stride := 1
			for e := d + 1; e < nd; e++ {
				stride *= gridDims[e]
			}
			coord[d] = r / stride
			r %= stride
		}
		// Tile index, row-major over tilesPerDim.
		idx := 0
		for d := 0; d < nd; d++ {
			idx = idx*tilesPerDim[d] + coord[d]/tile[d]
		}
		assign[v] = idx
	}
	return assign, parts
}

// Greedy clusters g into groups of exactly groupSize (a power of two) by
// repeated heavy-edge pairing: log2(groupSize) rounds, each pairing the
// current clusters along their heaviest mutual volume. It is the fallback
// when the communication graph has no grid structure.
func Greedy(g *graph.Comm, groupSize int) (*Result, error) {
	if groupSize < 1 || groupSize&(groupSize-1) != 0 {
		return nil, fmt.Errorf("cluster: greedy group size %d is not a power of two", groupSize)
	}
	if g.N()%groupSize != 0 {
		return nil, fmt.Errorf("cluster: group size %d does not divide %d vertices", groupSize, g.N())
	}
	assign := identity(g.N())
	cur := g
	intraTotal := 0.0
	for sz := 1; sz < groupSize; sz *= 2 {
		pair := heavyEdgePairs(cur)
		var intra float64
		cur, intra = cur.Coarsen(pair, cur.N()/2)
		intraTotal += intra
		for v := range assign {
			assign[v] = pair[assign[v]]
		}
	}
	return &Result{
		Assign:      assign,
		NumClusters: g.N() / groupSize,
		Coarse:      cur,
		IntraVolume: intraTotal,
	}, nil
}

// heavyEdgePairs pairs the vertices of g (even count) greedily by
// decreasing symmetric edge volume; leftover vertices are paired
// arbitrarily but deterministically. Returns vertex -> pair id.
func heavyEdgePairs(g *graph.Comm) []int {
	n := g.N()
	type edge struct {
		u, v int
		w    float64
	}
	var edges []edge
	g.EachFlow(func(s, d int, vol float64) {
		if s < d {
			edges = append(edges, edge{s, d, vol + g.Traffic(d, s)})
		}
	})
	sort.Slice(edges, func(i, j int) bool {
		if edges[i].w > edges[j].w {
			return true
		}
		if edges[i].w < edges[j].w {
			return false
		}
		if edges[i].u != edges[j].u {
			return edges[i].u < edges[j].u
		}
		return edges[i].v < edges[j].v
	})
	pair := make([]int, n)
	for i := range pair {
		pair[i] = -1
	}
	next := 0
	for _, e := range edges {
		if pair[e.u] == -1 && pair[e.v] == -1 {
			pair[e.u], pair[e.v] = next, next
			next++
		}
	}
	// Pair the unmatched in index order.
	last := -1
	for v := 0; v < n; v++ {
		if pair[v] != -1 {
			continue
		}
		if last == -1 {
			last = v
		} else {
			pair[last], pair[v] = next, next
			next++
			last = -1
		}
	}
	return pair
}

// Auto tiles when gridDims is non-nil and a fitting tile exists, otherwise
// falls back to Greedy (which requires a power-of-two group size).
func Auto(g *graph.Comm, gridDims []int, groupSize int) (*Result, error) {
	if gridDims != nil {
		res, err := TileGrid(g, gridDims, groupSize)
		if err == nil {
			return res, nil
		}
	}
	return Greedy(g, groupSize)
}

// Quality reports the fraction of total volume a clustering keeps inside
// clusters (1 = everything local, 0 = everything crosses).
func Quality(g *graph.Comm, r *Result) float64 {
	tot := g.TotalVolume()
	if tot == 0 {
		return 1
	}
	q := r.IntraVolume / tot
	if math.IsNaN(q) {
		return 0
	}
	return q
}

func identity(n int) []int {
	a := make([]int, n)
	for i := range a {
		a[i] = i
	}
	return a
}

func ones(n int) []int {
	a := make([]int, n)
	for i := range a {
		a[i] = 1
	}
	return a
}
