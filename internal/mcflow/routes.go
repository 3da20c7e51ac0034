package mcflow

import (
	"fmt"
	"sort"
	"strings"

	"rahtm/internal/routing"
	"rahtm/internal/topology"
)

// RouteSplit describes how one node-level flow divides over channels: the
// fraction of the flow's volume crossing each directed channel.
type RouteSplit struct {
	Src, Dst int             // node ranks
	Vol      float64         // total flow volume
	Fraction map[int]float64 // channel id -> fraction of Vol on it
}

// RoutingTable is the per-flow optimal splitting the LP computed — the
// "application-specific per-flow routing" co-optimization the paper's §VI
// anticipates for hardware that supports it.
type RoutingTable struct {
	Topo   *topology.Torus
	Splits []RouteSplit
}

// String renders the table compactly for inspection.
func (rt *RoutingTable) String() string {
	var b strings.Builder
	for _, s := range rt.Splits {
		fmt.Fprintf(&b, "flow %d->%d vol %g:\n", s.Src, s.Dst, s.Vol)
		chs := make([]int, 0, len(s.Fraction))
		for ch := range s.Fraction {
			chs = append(chs, ch)
		}
		sort.Ints(chs)
		for _, ch := range chs {
			node, dim, dir := rt.Topo.DecodeChannel(ch)
			sign := "+"
			if dir == topology.Minus {
				sign = "-"
			}
			fmt.Fprintf(&b, "  node %d dim %d%s: %.3f\n", node, dim, sign, s.Fraction[ch])
		}
	}
	return b.String()
}

// Loads reconstructs the per-channel load vector implied by the table.
func (rt *RoutingTable) Loads() []float64 {
	loads := make([]float64, rt.Topo.NumChannels())
	for _, s := range rt.Splits {
		for ch, f := range s.Fraction {
			loads[ch] += f * s.Vol
		}
	}
	return loads
}

// MCL returns the maximum channel load implied by the table.
func (rt *RoutingTable) MCL() float64 {
	return routing.MCL(rt.Loads())
}

// Conserved checks per-flow conservation: the net outflow at the source
// equals the volume, the net inflow at the destination equals the volume,
// and intermediate nodes are balanced (within tol, as a fraction of Vol).
func (rt *RoutingTable) Conserved(tol float64) error {
	for _, s := range rt.Splits {
		net := make(map[int]float64)
		for ch, f := range s.Fraction {
			node, dim, dir := rt.Topo.DecodeChannel(ch)
			next, ok := rt.Topo.NeighborRank(node, dim, dir)
			if !ok {
				return fmt.Errorf("mcflow: route uses non-existent channel %d", ch)
			}
			net[node] += f
			net[next] -= f
		}
		for node, v := range net {
			want := 0.0
			switch node {
			case s.Src:
				want = 1
			case s.Dst:
				want = -1
			}
			if diff := v - want; diff > tol || diff < -tol {
				return fmt.Errorf("mcflow: flow %d->%d unbalanced at node %d by %g", s.Src, s.Dst, node, diff)
			}
		}
	}
	return nil
}
