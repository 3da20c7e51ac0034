// Package fattree extends RAHTM's ideas to fat-tree topologies, as §VI of
// the paper sketches: "leaf-level topology partitions can be other
// structures such as trees in the case of fat-tree topology" and minimal
// routing constraints change accordingly.
//
// The model is an m-ary l-level full-bisection fat tree (a folded Clos):
// m^l hosts; the subtree at level k contains m^k hosts and owns m^k uplinks
// toward level k+1. Two routing models are provided:
//
//   - ECMP: uplink chosen uniformly at random per flow packet — the load of
//     traffic crossing a subtree boundary spreads evenly over that
//     subtree's uplinks (the fat-tree analogue of the paper's balanced
//     all-minimal-paths approximation);
//   - DModK: the deterministic destination-mod-k uplink choice common in
//     InfiniBand deployments — the routing-oblivious comparator.
//
// Because a full-bisection fat tree is completely symmetric above the leaf
// level, mapping quality depends only on how well the recursive partition
// of the task graph confines traffic within subtrees — which is exactly
// RAHTM's clustering phase with the cube-mapping phase degenerating away.
// Map implements that: recursive balanced min-cut grouping, bottom-up.
package fattree

import (
	"fmt"

	"rahtm/internal/cluster"
	"rahtm/internal/graph"
	"rahtm/internal/topology"
)

// FatTree is an m-ary l-level full-bisection fat tree.
type FatTree struct {
	arity  int
	levels int
	hosts  int
}

// New builds a fat tree with the given switch arity (>= 2) and level count
// (>= 1). Hosts = arity^levels.
func New(arity, levels int) (*FatTree, error) {
	if arity < 2 {
		return nil, fmt.Errorf("fattree: arity %d < 2", arity)
	}
	if levels < 1 {
		return nil, fmt.Errorf("fattree: levels %d < 1", levels)
	}
	hosts := 1
	for i := 0; i < levels; i++ {
		hosts *= arity
		if hosts > 1<<24 {
			return nil, fmt.Errorf("fattree: %d^%d hosts is too large", arity, levels)
		}
	}
	return &FatTree{arity: arity, levels: levels, hosts: hosts}, nil
}

// Hosts returns the host count.
func (f *FatTree) Hosts() int { return f.hosts }

// Arity returns the switch arity.
func (f *FatTree) Arity() int { return f.arity }

// Levels returns the number of tree levels.
func (f *FatTree) Levels() int { return f.levels }

// String implements fmt.Stringer.
func (f *FatTree) String() string {
	return fmt.Sprintf("fattree(%d-ary, %d levels, %d hosts)", f.arity, f.levels, f.hosts)
}

// SubtreeOf returns the index of the level-k subtree containing host h
// (level 0 = the host itself, level levels = the whole machine).
func (f *FatTree) SubtreeOf(host, level int) int {
	div := 1
	for i := 0; i < level; i++ {
		div *= f.arity
	}
	return host / div
}

// subtreeSize returns hosts per level-k subtree.
func (f *FatTree) subtreeSize(level int) int {
	s := 1
	for i := 0; i < level; i++ {
		s *= f.arity
	}
	return s
}

// numSubtrees returns the number of level-k subtrees.
func (f *FatTree) numSubtrees(level int) int { return f.hosts / f.subtreeSize(level) }

// Uplinks returns the uplink count of one level-k subtree (full bisection:
// equal to its host count). Level ranges over 0..levels-1: level 0 uplinks
// are the host-to-leaf-switch links.
func (f *FatTree) Uplinks(level int) int { return f.subtreeSize(level) }

// Routing selects the uplink load model.
type Routing int8

// Routing models.
const (
	// ECMP spreads each flow uniformly over all uplinks of every subtree
	// it crosses (the adaptive/balanced model).
	ECMP Routing = iota
	// DModK pins each flow to uplink (dst mod uplinks) at every crossed
	// subtree (the deterministic, routing-oblivious model).
	DModK
)

// String implements fmt.Stringer.
func (r Routing) String() string {
	if r == ECMP {
		return "ecmp"
	}
	return "d-mod-k"
}

// Loads computes per-uplink loads (up and down direction combined per
// link pair; up dominates symmetric traffic identically) for graph g mapped
// by m. The result is indexed by LinkID.
func (f *FatTree) Loads(g *graph.Comm, m topology.Mapping, r Routing) ([]float64, error) {
	if len(m) != g.N() {
		return nil, fmt.Errorf("fattree: mapping covers %d tasks, graph has %d", len(m), g.N())
	}
	loads := make([]float64, f.NumLinks())
	for _, fl := range g.Flows() {
		src, dst := m[fl.Src], m[fl.Dst]
		if src < 0 || src >= f.hosts || dst < 0 || dst >= f.hosts {
			return nil, fmt.Errorf("fattree: host out of range")
		}
		if src == dst {
			continue
		}
		// LCA level: the lowest level whose subtrees contain both hosts.
		lca := 1
		for f.SubtreeOf(src, lca) != f.SubtreeOf(dst, lca) {
			lca++
		}
		// The flow crosses the uplinks of src's subtree (upward) and dst's
		// subtree (downward) at every level below the LCA.
		for level := 0; level < lca; level++ {
			up := f.SubtreeOf(src, level)
			down := f.SubtreeOf(dst, level)
			n := f.Uplinks(level)
			switch r {
			case ECMP:
				share := fl.Vol / float64(n)
				for u := 0; u < n; u++ {
					loads[f.LinkID(level, up, u)] += share
					loads[f.LinkID(level, down, u)] += share
				}
			case DModK:
				u := dst % n
				loads[f.LinkID(level, up, u)] += fl.Vol
				loads[f.LinkID(level, down, u)] += fl.Vol
			}
		}
	}
	return loads, nil
}

// NumLinks returns the number of distinct (level, subtree, uplink) slots.
func (f *FatTree) NumLinks() int {
	total := 0
	for level := 0; level < f.levels; level++ {
		total += f.numSubtrees(level) * f.Uplinks(level)
	}
	return total
}

// LinkID densely indexes uplink u of level-`level` subtree s.
func (f *FatTree) LinkID(level, subtree, uplink int) int {
	base := 0
	for l := 0; l < level; l++ {
		base += f.numSubtrees(l) * f.Uplinks(l)
	}
	return base + subtree*f.Uplinks(level) + uplink
}

// MCL returns the maximum uplink load for g mapped by m under r, including
// the host links (whose loads are mapping-invariant for one-task-per-host
// mappings).
func (f *FatTree) MCL(g *graph.Comm, m topology.Mapping, r Routing) (float64, error) {
	loads, err := f.Loads(g, m, r)
	if err != nil {
		return 0, err
	}
	max := 0.0
	for _, v := range loads {
		if v > max {
			max = v
		}
	}
	return max, nil
}

// SwitchMCL returns the maximum load over switch-to-switch links only
// (levels >= 1) — the quantity mapping actually controls, since host-link
// loads are fixed by the traffic matrix.
func (f *FatTree) SwitchMCL(g *graph.Comm, m topology.Mapping, r Routing) (float64, error) {
	loads, err := f.Loads(g, m, r)
	if err != nil {
		return 0, err
	}
	max := 0.0
	for id := f.numSubtrees(0) * f.Uplinks(0); id < len(loads); id++ {
		if loads[id] > max {
			max = loads[id]
		}
	}
	return max, nil
}

// Map runs the fat-tree variant of RAHTM: recursive balanced clustering
// (heavy-edge grouping, or tile search when gridDims describe the tasks)
// assigns task groups to subtrees bottom-up, confining as much traffic as
// possible at the lowest levels. Above the leaf the full-bisection tree is
// symmetric, so no cube-mapping or rotation phase is needed — the paper's
// phases 2-3 degenerate and only phase 1 quality matters.
func (f *FatTree) Map(g *graph.Comm, gridDims []int) (topology.Mapping, error) {
	if g.N() != f.hosts {
		return nil, fmt.Errorf("fattree: %d tasks for %d hosts", g.N(), f.hosts)
	}
	if f.arity&(f.arity-1) != 0 {
		return nil, fmt.Errorf("fattree: mapping requires power-of-two arity, have %d", f.arity)
	}
	// Bottom-up: group tasks into leaf subtrees, then groups into larger
	// subtrees. The per-level digit of a task is the position of its
	// cluster within that cluster's parent; composed root-to-leaf the
	// digits form the host id.
	assign := make([]int, g.N()) // task -> current cluster id
	for i := range assign {
		assign[i] = i
	}
	cur := g
	grids := gridDims
	perLevel := make([][]int, f.levels) // perLevel[level][task] = digit
	for level := 0; level < f.levels; level++ {
		res, err := cluster.Auto(cur, grids, f.arity)
		if err != nil {
			return nil, fmt.Errorf("fattree: level %d clustering: %w", level, err)
		}
		grids = res.GridDims
		// Position of each fine cluster within its parent group, by order
		// of appearance (deterministic).
		pos := make([]int, cur.N())
		seen := make(map[int]int, res.NumClusters)
		for v := 0; v < cur.N(); v++ {
			parent := res.Assign[v]
			pos[v] = seen[parent]
			seen[parent]++
		}
		for _, c := range seen {
			if c != f.arity {
				return nil, fmt.Errorf("fattree: level %d produced a group of %d, want %d", level, c, f.arity)
			}
		}
		taskPos := make([]int, g.N())
		for t := range taskPos {
			taskPos[t] = pos[assign[t]]
		}
		perLevel[level] = taskPos
		for t := range assign {
			assign[t] = res.Assign[assign[t]]
		}
		cur = res.Coarse
	}
	// Host id: digits from root (last level) down to leaf (first level).
	m := make(topology.Mapping, g.N())
	for t := 0; t < g.N(); t++ {
		h := 0
		for level := f.levels - 1; level >= 0; level-- {
			h = h*f.arity + perLevel[level][t]
		}
		m[t] = h
	}
	if err := m.Validate(f.hosts, true); err != nil {
		return nil, fmt.Errorf("fattree: produced invalid mapping: %w", err)
	}
	return m, nil
}
