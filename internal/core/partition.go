package core

import (
	"context"
	"fmt"
	"math/bits"
	"sort"

	"rahtm/internal/cluster"
	"rahtm/internal/graph"
	"rahtm/internal/routing"
	"rahtm/internal/sched"
	"rahtm/internal/telemetry"
	"rahtm/internal/topology"
)

// MapPartitionedCtx extends MapProcessesCtx to tori whose dimensions are
// not powers of two, implementing §III-B's prescription: "topologies that
// do not satisfy this constraint may be partitioned into smaller partitions
// where the property holds. We then apply RAHTM to each one of the
// partitions and then merge back the mappings."
//
// The topology is recursively split along its first non-power-of-two
// dimension into boxes whose extents are the binary decomposition of that
// dimension (6 -> 4 + 2). The node-task graph is partitioned into
// same-sized parts by a size-targeted Kernighan-Lin split minimizing the
// cut, each part is mapped within its box by the regular pipeline, and the
// placements compose. (Cross-partition rotation merging is not applicable
// because the partitions have different shapes; the partition cut is
// minimized instead.)
//
// Cancellation follows MapProcessesCtx: hard cancellation aborts with
// ctx.Err() at the next per-partition boundary, deadline expiry degrades
// each remaining partition to its best-so-far mapping.
func MapPartitionedCtx(ctx context.Context, proc *graph.Comm, t *topology.Torus, cfg Config) (*Result, error) {
	if isPowerOfTwoTorus(t) {
		return MapProcessesCtx(ctx, proc, t, cfg)
	}
	if err := sched.HardCancel(ctx); err != nil {
		return nil, err
	}
	conc := cfg.Concentration
	if conc <= 0 {
		conc = 1
	}
	if proc.N() != t.N()*conc {
		return nil, fmt.Errorf("core: %d processes != %d nodes x %d concentration", proc.N(), t.N(), conc)
	}

	// Phase 1a as usual: concentrate processes into node-level tasks.
	nodeGraph, procToTask, quality, err := concentrate(proc, cfg.GridDims, conc)
	if err != nil {
		return nil, err
	}

	boxes := powerOfTwoBoxes(t)
	parts, err := partitionBySizes(nodeGraph, boxSizes(boxes))
	if err != nil {
		return nil, err
	}

	nodeMapping := make(topology.Mapping, t.N())
	for i := range nodeMapping {
		nodeMapping[i] = -1
	}
	degraded := false
	for bi, box := range boxes {
		if err := sched.HardCancel(ctx); err != nil {
			return nil, err
		}
		tasks := parts[bi]
		sub, _ := nodeGraph.InducedSubgraph(tasks)
		// The box is a mesh cut out of the torus: full-width dims keep
		// their wrap.
		wrap := make([]bool, t.NumDims())
		for d := 0; d < t.NumDims(); d++ {
			wrap[d] = t.Wrap(d) && box.Shape[d] == t.Dim(d)
		}
		boxTopo := topology.NewMixed(box.Shape, wrap)
		boxNodes := t.Nodes(box)
		if boxTopo.N() == 1 {
			nodeMapping[tasks[0]] = boxNodes[0]
			continue
		}
		subCfg := cfg
		subCfg.Concentration = 1
		subCfg.GridDims = nil // the induced subgraph has no grid structure
		res, err := MapProcessesCtx(ctx, sub, boxTopo, subCfg)
		if err != nil {
			return nil, fmt.Errorf("core: partition %v: %w", box, err)
		}
		if res.Stats.Degraded {
			degraded = true
		}
		for li, task := range tasks {
			nodeMapping[task] = boxNodes[res.NodeMapping[li]]
		}
	}
	for task, n := range nodeMapping {
		if n < 0 {
			return nil, fmt.Errorf("core: task %d left unmapped", task)
		}
	}
	if err := nodeMapping.Validate(t.N(), true); err != nil {
		return nil, err
	}

	out := &Result{
		NodeMapping: nodeMapping,
		NodeGraph:   nodeGraph,
	}
	out.Stats.ClusterQuality = quality
	out.Stats.Degraded = degraded
	out.place(procToTask)
	out.MCL = routing.MaxChannelLoad(t, nodeGraph, nodeMapping, routing.MinimalAdaptive{}.WithScope(telemetry.ScopeFrom(ctx)))
	return out, nil
}

// concentrate is Phase 1a shared between entry points.
func concentrate(proc *graph.Comm, gridDims []int, conc int) (*graph.Comm, []int, float64, error) {
	if conc == 1 {
		return proc, identity(proc.N()), 0, nil
	}
	c1, err := cluster.Auto(proc, gridDims, conc)
	if err != nil {
		return nil, nil, 0, fmt.Errorf("core: concentration clustering: %w", err)
	}
	return c1.Coarse, c1.Assign, cluster.Quality(proc, c1), nil
}

// isPowerOfTwoTorus reports whether every dimension is a power of two.
func isPowerOfTwoTorus(t *topology.Torus) bool {
	for d := 0; d < t.NumDims(); d++ {
		k := t.Dim(d)
		if k&(k-1) != 0 {
			return false
		}
	}
	return true
}

// powerOfTwoBoxes recursively splits t into boxes with power-of-two
// extents, following each dimension's binary decomposition.
func powerOfTwoBoxes(t *topology.Torus) []topology.Box {
	nd := t.NumDims()
	boxes := []topology.Box{{Origin: make([]int, nd), Shape: t.Dims()}}
	for d := 0; d < nd; d++ {
		var next []topology.Box
		for _, b := range boxes {
			k := b.Shape[d]
			if k&(k-1) == 0 {
				next = append(next, b)
				continue
			}
			off := b.Origin[d]
			rem := k
			for rem > 0 {
				chunk := 1 << (bits.Len(uint(rem)) - 1)
				nb := topology.Box{
					Origin: append([]int(nil), b.Origin...),
					Shape:  append([]int(nil), b.Shape...),
				}
				nb.Origin[d] = off
				nb.Shape[d] = chunk
				next = append(next, nb)
				off += chunk
				rem -= chunk
			}
		}
		boxes = next
	}
	// Deterministic order: larger boxes first, then by origin.
	sort.Slice(boxes, func(i, j int) bool {
		si, sj := boxes[i].Size(), boxes[j].Size()
		if si != sj {
			return si > sj
		}
		for d := range boxes[i].Origin {
			if boxes[i].Origin[d] != boxes[j].Origin[d] {
				return boxes[i].Origin[d] < boxes[j].Origin[d]
			}
		}
		return false
	})
	return boxes
}

func boxSizes(boxes []topology.Box) []int {
	out := make([]int, len(boxes))
	for i, b := range boxes {
		out[i] = b.Size()
	}
	return out
}

// partitionBySizes splits the vertices of g into parts with the prescribed
// sizes, minimizing the cut volume with a size-preserving KL-style swap
// refinement. Parts are produced in order; within a part vertices are
// ascending.
func partitionBySizes(g *graph.Comm, sizes []int) ([][]int, error) {
	total := 0
	for _, s := range sizes {
		total += s
	}
	if total != g.N() {
		return nil, fmt.Errorf("core: partition sizes sum to %d, graph has %d", total, g.N())
	}
	// Initial assignment: contiguous index ranges.
	part := make([]int, g.N())
	v := 0
	for pi, s := range sizes {
		for k := 0; k < s; k++ {
			part[v] = pi
			v++
		}
	}
	// Symmetric adjacency. The iterable form is a sorted neighbor list,
	// not a map: the gain function accumulates float weights, and float
	// addition in randomized map order would make refinement (and thus
	// the final partition) differ bit-for-bit between runs. A map shadow
	// serves point lookups only.
	type nbw struct {
		nb int
		w  float64
	}
	adjList := make([][]nbw, g.N())
	adjW := make([]map[int]float64, g.N())
	for i := range adjW {
		adjW[i] = make(map[int]float64)
	}
	g.EachFlow(func(s, d int, vol float64) {
		adjW[s][d] += vol
		adjW[d][s] += vol
	})
	for v := range adjW {
		nbs := make([]int, 0, len(adjW[v]))
		for nb := range adjW[v] {
			nbs = append(nbs, nb)
		}
		sort.Ints(nbs)
		adjList[v] = make([]nbw, len(nbs))
		for i, nb := range nbs {
			adjList[v][i] = nbw{nb, adjW[v][nb]}
		}
	}
	gain := func(a, b int) float64 {
		// Gain of swapping vertices a and b between their parts.
		pa, pb := part[a], part[b]
		da, db := 0.0, 0.0
		for _, e := range adjList[a] {
			switch part[e.nb] {
			case pb:
				da += e.w
			case pa:
				da -= e.w
			}
		}
		for _, e := range adjList[b] {
			switch part[e.nb] {
			case pa:
				db += e.w
			case pb:
				db -= e.w
			}
		}
		return da + db - 2*adjW[a][b]
	}
	for pass := 0; pass < 4; pass++ {
		improved := false
		for a := 0; a < g.N(); a++ {
			bestB, bestGain := -1, 1e-12
			for b := a + 1; b < g.N(); b++ {
				if part[a] == part[b] {
					continue
				}
				if gn := gain(a, b); gn > bestGain {
					bestB, bestGain = b, gn
				}
			}
			if bestB >= 0 {
				part[a], part[bestB] = part[bestB], part[a]
				improved = true
			}
		}
		if !improved {
			break
		}
	}
	out := make([][]int, len(sizes))
	for v, pi := range part {
		out[pi] = append(out[pi], v)
	}
	for pi, s := range sizes {
		if len(out[pi]) != s {
			return nil, fmt.Errorf("core: partition %d has %d vertices, want %d", pi, len(out[pi]), s)
		}
	}
	return out, nil
}
