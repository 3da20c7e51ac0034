// Package mappers provides the baseline task-mapping strategies the paper
// compares RAHTM against (§IV):
//
//   - dimension-permutation mappings (ABCDET default, TABCDE, ACEBDT, or any
//     permutation of the torus dimensions plus the in-node T dimension);
//   - the Hilbert-curve mapping over the square sub-space of the torus;
//   - Rubik-style hierarchical tiling (RHT): application-grid tiles mapped
//     onto topology sub-boxes;
//   - greedy hop-bytes placement (the routing-unaware heuristic family);
//   - random placement.
//
// All mappers produce process-to-node mappings with exactly `concentration`
// processes per node.
package mappers

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"

	"rahtm/internal/graph"
	"rahtm/internal/hilbert"
	"rahtm/internal/topology"
	"rahtm/internal/workload"
)

// Mapper turns a workload into a process-to-node mapping on a topology with
// the given concentration factor (processes per node).
type Mapper interface {
	Name() string
	MapProcs(w *workload.Workload, t *topology.Torus, conc int) (topology.Mapping, error)
}

// checkSize validates the process count against the topology capacity.
func checkSize(w *workload.Workload, t *topology.Torus, conc int) error {
	if conc < 1 {
		return fmt.Errorf("mappers: concentration %d < 1", conc)
	}
	if w.Procs() != t.N()*conc {
		return fmt.Errorf("mappers: %d processes != %d nodes x %d per node", w.Procs(), t.N(), conc)
	}
	return nil
}

// Permutation assigns consecutive ranks by traversing the space in the
// given dimension order, rightmost letter fastest — exactly BG/Q's map
// strings. Letters A..Z name torus dimensions 0..; T names the in-node
// dimension (cores).
type Permutation struct {
	Spec string // e.g. "ABCDET", "TABCDE", "ACEBDT"
}

// Name implements Mapper.
func (p Permutation) Name() string { return p.Spec }

// parseSpec resolves the spec into a dimension sequence; nd is the torus
// dimensionality and the value nd denotes T.
func (p Permutation) parseSpec(nd int, conc int) ([]int, error) {
	spec := strings.ToUpper(strings.TrimSpace(p.Spec))
	if spec == "" {
		return nil, fmt.Errorf("mappers: empty permutation spec")
	}
	seen := make(map[int]bool)
	var seq []int
	for _, r := range spec {
		var d int
		switch {
		case r == 'T':
			d = nd
		case r >= 'A' && r <= 'Z':
			d = int(r - 'A')
			if d >= nd {
				return nil, fmt.Errorf("mappers: letter %c exceeds %d topology dimensions", r, nd)
			}
		default:
			return nil, fmt.Errorf("mappers: bad letter %q in spec %q", r, p.Spec)
		}
		if seen[d] {
			return nil, fmt.Errorf("mappers: duplicate letter %c in spec %q", r, p.Spec)
		}
		seen[d] = true
		seq = append(seq, d)
	}
	for d := 0; d < nd; d++ {
		if !seen[d] {
			return nil, fmt.Errorf("mappers: spec %q misses dimension %c", p.Spec, 'A'+rune(d))
		}
	}
	if conc > 1 && !seen[nd] {
		return nil, fmt.Errorf("mappers: spec %q misses T with concentration %d", p.Spec, conc)
	}
	return seq, nil
}

// MapProcs implements Mapper.
func (p Permutation) MapProcs(w *workload.Workload, t *topology.Torus, conc int) (topology.Mapping, error) {
	if err := checkSize(w, t, conc); err != nil {
		return nil, err
	}
	nd := t.NumDims()
	seq, err := p.parseSpec(nd, conc)
	if err != nil {
		return nil, err
	}
	sizeOf := func(d int) int {
		if d == nd {
			return conc
		}
		return t.Dim(d)
	}
	m := make(topology.Mapping, w.Procs())
	coord := make([]int, nd)
	for rank := 0; rank < w.Procs(); rank++ {
		r := rank
		for i := len(seq) - 1; i >= 0; i-- {
			d := seq[i]
			digit := r % sizeOf(d)
			r /= sizeOf(d)
			if d < nd {
				coord[d] = digit
			}
		}
		m[rank] = t.RankOf(coord)
	}
	return m, nil
}

// Hilbert traverses the largest group of equal power-of-two dimensions in
// Hilbert-curve order (ABCD on BG/Q); remaining dimensions and the in-node
// T dimension follow in plain dimension order, T fastest (the paper's
// "ET order").
type Hilbert struct{}

// Name implements Mapper.
func (Hilbert) Name() string { return "Hilbert" }

// MapProcs implements Mapper.
func (Hilbert) MapProcs(w *workload.Workload, t *topology.Torus, conc int) (topology.Mapping, error) {
	if err := checkSize(w, t, conc); err != nil {
		return nil, err
	}
	nd := t.NumDims()
	// Group dimensions by size; pick the power-of-two size >= 2 with the
	// most dimensions (ties: larger size).
	bySize := make(map[int][]int)
	for d := 0; d < nd; d++ {
		k := t.Dim(d)
		if k >= 2 && k&(k-1) == 0 {
			bySize[k] = append(bySize[k], d)
		}
	}
	bestSize := 0
	for k, dims := range bySize {
		if bestSize == 0 || len(dims) > len(bySize[bestSize]) ||
			(len(dims) == len(bySize[bestSize]) && k > bestSize) {
			bestSize = k
		}
	}
	if bestSize == 0 {
		return nil, fmt.Errorf("mappers: no power-of-two dimensions for the Hilbert traversal")
	}
	sq := bySize[bestSize]
	bits := 0
	for 1<<bits < bestSize {
		bits++
	}
	var rest []int
	inSq := make(map[int]bool)
	for _, d := range sq {
		inSq[d] = true
	}
	for d := 0; d < nd; d++ {
		if !inSq[d] {
			rest = append(rest, d)
		}
	}
	restVol := 1
	for _, d := range rest {
		restVol *= t.Dim(d)
	}
	sqVol := 1
	for range sq {
		sqVol *= bestSize
	}
	if sqVol*restVol != t.N() {
		return nil, fmt.Errorf("mappers: internal volume mismatch")
	}

	m := make(topology.Mapping, w.Procs())
	coord := make([]int, nd)
	for rank := 0; rank < w.Procs(); rank++ {
		r := rank / conc // node visit index; T fastest
		hIdx := r / restVol
		restIdx := r % restVol
		pt := hilbert.Point(bits, len(sq), uint64(hIdx))
		for i, d := range sq {
			coord[d] = pt[i]
		}
		for i := len(rest) - 1; i >= 0; i-- {
			d := rest[i]
			coord[d] = restIdx % t.Dim(d)
			restIdx /= t.Dim(d)
		}
		m[rank] = t.RankOf(coord)
	}
	return m, nil
}

// RHT is Rubik-style hierarchical tiling: the application grid is cut into
// tiles, the topology into sub-boxes, and tile k maps onto box k (both
// row-major), processes row-major within the tile, cores fastest.
type RHT struct {
	// AppTile is the application-grid tile shape; nil picks the most
	// cubic tile of the right volume automatically.
	AppTile []int
	// NodeBox is the topology sub-box shape; nil picks min(dim, 2) per
	// dimension (the topology's natural 2-ary building block).
	NodeBox []int
}

// Name implements Mapper.
func (RHT) Name() string { return "RHT" }

// MapProcs implements Mapper.
func (r RHT) MapProcs(w *workload.Workload, t *topology.Torus, conc int) (topology.Mapping, error) {
	if err := checkSize(w, t, conc); err != nil {
		return nil, err
	}
	if w.Grid == nil {
		return nil, fmt.Errorf("mappers: RHT needs a workload grid")
	}
	box := r.NodeBox
	if box == nil {
		box = make([]int, t.NumDims())
		for d := range box {
			box[d] = t.Dim(d)
			if box[d] > 2 {
				box[d] = 2
			}
		}
	}
	boxVol := 1
	boxGrid := make([]int, t.NumDims())
	for d := range box {
		if box[d] < 1 || t.Dim(d)%box[d] != 0 {
			return nil, fmt.Errorf("mappers: RHT box %v does not divide topology %v", box, t)
		}
		boxVol *= box[d]
		boxGrid[d] = t.Dim(d) / box[d]
	}
	tileVol := boxVol * conc
	tile := r.AppTile
	if tile == nil {
		tile = mostCubicTile(w.Grid, tileVol)
		if tile == nil {
			return nil, fmt.Errorf("mappers: no tile of volume %d fits grid %v", tileVol, w.Grid)
		}
	}
	tVol := 1
	tileGrid := make([]int, len(w.Grid))
	for d := range tile {
		if d >= len(w.Grid) || tile[d] < 1 || w.Grid[d]%tile[d] != 0 {
			return nil, fmt.Errorf("mappers: RHT tile %v does not divide grid %v", tile, w.Grid)
		}
		tVol *= tile[d]
		tileGrid[d] = w.Grid[d] / tile[d]
	}
	if tVol != tileVol {
		return nil, fmt.Errorf("mappers: tile %v volume %d, want %d", tile, tVol, tileVol)
	}

	// Rank -> (tile index, offset in tile) on the application grid.
	m := make(topology.Mapping, w.Procs())
	appCoord := make([]int, len(w.Grid))
	nodeCoord := make([]int, t.NumDims())
	for rank := 0; rank < w.Procs(); rank++ {
		// Decode the rank on the application grid, row-major.
		rr := rank
		for d := len(w.Grid) - 1; d >= 0; d-- {
			appCoord[d] = rr % w.Grid[d]
			rr /= w.Grid[d]
		}
		// Tile index (row-major over tileGrid) and offset within tile.
		tileIdx, offIdx := 0, 0
		for d := 0; d < len(w.Grid); d++ {
			tileIdx = tileIdx*tileGrid[d] + appCoord[d]/tile[d]
			offIdx = offIdx*tile[d] + appCoord[d]%tile[d]
		}
		// Box index equals tile index; node within box from offset.
		nodeInBox := offIdx / conc
		bIdx := tileIdx
		for d := t.NumDims() - 1; d >= 0; d-- {
			boxPos := bIdx % boxGrid[d]
			bIdx /= boxGrid[d]
			nodeCoord[d] = boxPos * box[d]
		}
		nb := nodeInBox
		for d := t.NumDims() - 1; d >= 0; d-- {
			nodeCoord[d] += nb % box[d]
			nb /= box[d]
		}
		m[rank] = t.RankOf(nodeCoord)
	}
	return m, nil
}

// mostCubicTile picks the tile shape of the given volume dividing the grid
// with the smallest aspect ratio.
func mostCubicTile(grid []int, vol int) []int {
	var best []int
	bestScore := 0
	var rec func(d, rem int, cur []int)
	rec = func(d, rem int, cur []int) {
		if d == len(grid) {
			if rem != 1 {
				return
			}
			lo, hi := cur[0], cur[0]
			for _, s := range cur {
				if s < lo {
					lo = s
				}
				if s > hi {
					hi = s
				}
			}
			score := hi * 1000 / lo // lower is squarer
			if best == nil || score < bestScore {
				best = append([]int(nil), cur...)
				bestScore = score
			}
			return
		}
		for s := 1; s <= grid[d] && s <= rem; s++ {
			if grid[d]%s != 0 || rem%s != 0 {
				continue
			}
			rec(d+1, rem/s, append(cur, s))
		}
	}
	rec(0, vol, nil)
	return best
}

// GreedyHopBytes places processes one at a time (heaviest communicators
// first) onto the free node slot minimizing the added hop-bytes — the
// routing-unaware greedy heuristic family the paper contrasts with.
type GreedyHopBytes struct{}

// Name implements Mapper.
func (GreedyHopBytes) Name() string { return "greedy-hop-bytes" }

// MapProcs implements Mapper.
func (GreedyHopBytes) MapProcs(w *workload.Workload, t *topology.Torus, conc int) (topology.Mapping, error) {
	if err := checkSize(w, t, conc); err != nil {
		return nil, err
	}
	g := w.Graph
	n := w.Procs()
	// Order: total symmetric volume descending, rank ascending tie-break.
	vol := make([]float64, n)
	g.EachFlow(func(s, d int, v float64) {
		vol[s] += v
		vol[d] += v
	})
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return vol[order[a]] > vol[order[b]] })

	// Symmetric adjacency so both directions count once each.
	adj := make([]map[int]float64, n)
	for i := range adj {
		adj[i] = make(map[int]float64)
	}
	g.EachFlow(func(s, d int, v float64) {
		adj[s][d] += v
		adj[d][s] += v
	})

	free := make([]int, t.N()) // remaining capacity per node
	for i := range free {
		free[i] = conc
	}
	m := make(topology.Mapping, n)
	placed := make([]bool, n)
	for _, task := range order {
		bestNode, bestCost := -1, 0.0
		for node := 0; node < t.N(); node++ {
			if free[node] == 0 {
				continue
			}
			cost := 0.0
			for nb, v := range adj[task] {
				if placed[nb] {
					cost += v * float64(t.MinDistance(node, m[nb]))
				}
			}
			if bestNode == -1 || cost < bestCost {
				bestNode, bestCost = node, cost
			}
		}
		m[task] = bestNode
		free[bestNode]--
		placed[task] = true
	}
	return m, nil
}

// Random shuffles processes uniformly over node slots.
type Random struct {
	Seed int64
}

// Name implements Mapper.
func (Random) Name() string { return "random" }

// MapProcs implements Mapper.
func (r Random) MapProcs(w *workload.Workload, t *topology.Torus, conc int) (topology.Mapping, error) {
	if err := checkSize(w, t, conc); err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(r.Seed))
	slots := make([]int, 0, w.Procs())
	for node := 0; node < t.N(); node++ {
		for c := 0; c < conc; c++ {
			slots = append(slots, node)
		}
	}
	rng.Shuffle(len(slots), func(i, j int) { slots[i], slots[j] = slots[j], slots[i] })
	return topology.Mapping(slots), nil
}

// Default returns the machine's default mapping (ABCDET-style: dimension
// order with T fastest) for a topology of any dimensionality.
func Default(t *topology.Torus) Permutation {
	letters := make([]byte, t.NumDims()+1)
	for d := 0; d < t.NumDims(); d++ {
		letters[d] = byte('A' + d)
	}
	letters[t.NumDims()] = 'T'
	return Permutation{Spec: string(letters)}
}

// aggregateToNodes coarsens a process graph to node level for a given
// process mapping — what the network actually sees.
func aggregateToNodes(g *graph.Comm, m topology.Mapping, numNodes int) *graph.Comm {
	out := graph.New(numNodes)
	g.EachFlow(func(s, d int, vol float64) {
		out.AddTraffic(m[s], m[d], vol)
	})
	return out.Build()
}

// NodeGraph exposes aggregateToNodes for callers computing node-level
// metrics of a process mapping.
func NodeGraph(g *graph.Comm, m topology.Mapping, numNodes int) *graph.Comm {
	return aggregateToNodes(g, m, numNodes)
}
