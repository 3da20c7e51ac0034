// Package mcflow evaluates a *fixed* task mapping with the linear-programming
// routing model: it finds the minimal-path multicommodity flow split that
// minimizes the maximum channel load (MCL). This is the "linear programming
// based routing-aware approach to evaluate possible mappings" of the RAHTM
// paper, and it lower-bounds what any minimal adaptive routing could achieve
// for the mapped pattern.
//
// Compared to routing.MinimalAdaptive (which fixes the split to
// uniform-over-minimal-paths), the LP may split flows unevenly to shave the
// hottest channel. It is correspondingly more expensive, so RAHTM uses it
// for final evaluation and ablations rather than inside merge loops.
package mcflow

import (
	"context"
	"fmt"
	"sort"

	"rahtm/internal/graph"
	"rahtm/internal/lp"
	"rahtm/internal/routing"
	"rahtm/internal/topology"
)

// Result carries the LP evaluation outcome.
type Result struct {
	MCL   float64   // optimal maximum channel load
	Loads []float64 // per-channel loads of the optimal split
}

type nodeFlow struct {
	src, dst int
	vol      float64
}

// EvaluateWithRoutesCtx computes the optimal minimal-routing MCL for graph
// g mapped onto t by m, together with the per-flow routing table extracted
// from the LP solution. Flows are restricted to channels that lie on minimal
// paths (distance-decreasing hops through nodes on some minimal
// source-destination path). Tasks sharing a node contribute nothing.
//
// The LP aborts at its next pivot poll when ctx is canceled or its deadline
// expires, returning ctx.Err(). The evaluator has no meaningful partial
// result, so deadline expiry is an error here, unlike in the mapping
// pipeline.
func EvaluateWithRoutesCtx(ctx context.Context, t *topology.Torus, g *graph.Comm, m topology.Mapping, opt lp.Options) (*Result, *RoutingTable, error) {
	if len(m) != g.N() {
		return nil, nil, fmt.Errorf("mcflow: mapping covers %d tasks, graph has %d", len(m), g.N())
	}
	// Aggregate task flows into node flows (tasks can share nodes).
	agg := make(map[[2]int]float64)
	g.EachFlow(func(fs, fd int, vol float64) {
		s, d := m[fs], m[fd]
		if s == d {
			return
		}
		agg[[2]int{s, d}] += vol
	})
	nf := make([]nodeFlow, 0, len(agg))
	for k, v := range agg {
		nf = append(nf, nodeFlow{src: k[0], dst: k[1], vol: v})
	}
	// Deterministic order for reproducible LPs.
	sort.Slice(nf, func(i, j int) bool {
		if nf[i].src != nf[j].src {
			return nf[i].src < nf[j].src
		}
		return nf[i].dst < nf[j].dst
	})

	prob := lp.NewProblem(0)
	z := prob.AddVariable(1, "mcl")

	// Per-channel accumulation terms for the objective rows.
	chTerms := make(map[int][]lp.Term)
	flowVars := make([]map[int]int, len(nf)) // per flow: channel -> LP var

	dist := func(a, b int) int { return t.MinDistance(a, b) }

	for fi, f := range nf {
		base := dist(f.src, f.dst)
		// Nodes on some minimal path.
		var nodes []int
		onPath := make(map[int]bool)
		for v := 0; v < t.N(); v++ {
			if dist(f.src, v)+dist(v, f.dst) == base {
				nodes = append(nodes, v)
				onPath[v] = true
			}
		}
		// Allowed channels: minimal-path node to minimal-path node, strictly
		// decreasing distance to the destination.
		type arc struct {
			ch       int
			from, to int
		}
		var arcs []arc
		fvar := make(map[int]int) // channel id -> LP variable
		flowVars[fi] = fvar
		for _, v := range nodes {
			for dim := 0; dim < t.NumDims(); dim++ {
				for dir := 0; dir < 2; dir++ {
					next, ok := t.NeighborRank(v, dim, dir)
					if !ok || !onPath[next] {
						continue
					}
					if dist(next, f.dst) != dist(v, f.dst)-1 {
						continue
					}
					ch := t.ChannelID(v, dim, dir)
					fv := prob.AddVariable(0, fmt.Sprintf("f%d_c%d", fi, ch))
					fvar[ch] = fv
					arcs = append(arcs, arc{ch: ch, from: v, to: next})
					chTerms[ch] = append(chTerms[ch], lp.Term{Var: fv, Coef: 1})
				}
			}
		}
		// Conservation at every minimal-path node.
		for _, v := range nodes {
			var terms []lp.Term
			for _, a := range arcs {
				switch v {
				case a.from:
					terms = append(terms, lp.Term{Var: fvar[a.ch], Coef: 1})
				case a.to:
					terms = append(terms, lp.Term{Var: fvar[a.ch], Coef: -1})
				}
			}
			rhs := 0.0
			switch v {
			case f.src:
				rhs = f.vol
			case f.dst:
				rhs = -f.vol
			}
			if len(terms) == 0 && rhs == 0 {
				continue
			}
			prob.AddConstraint(terms, lp.EQ, rhs)
		}
	}

	// MCL rows: sum of flow on a channel <= z.
	chIDs := make([]int, 0, len(chTerms))
	for ch := range chTerms {
		chIDs = append(chIDs, ch)
	}
	sort.Ints(chIDs)
	for _, ch := range chIDs {
		terms := append([]lp.Term(nil), chTerms[ch]...)
		terms = append(terms, lp.Term{Var: z, Coef: -1})
		prob.AddConstraint(terms, lp.LE, 0)
	}

	sol, err := prob.SolveCtx(ctx, opt)
	if err != nil {
		return nil, nil, err
	}
	if sol.Status != lp.Optimal {
		return nil, nil, fmt.Errorf("mcflow: LP %v", sol.Status)
	}

	loads := make([]float64, t.NumChannels())
	for _, ch := range chIDs {
		for _, term := range chTerms[ch] {
			loads[ch] += sol.X[term.Var]
		}
	}
	res := &Result{MCL: routing.MCL(loads), Loads: loads}
	splits := make([]RouteSplit, 0, len(nf))
	for fi, f := range nf {
		s := RouteSplit{Src: f.src, Dst: f.dst, Vol: f.vol, Fraction: make(map[int]float64)}
		for ch, v := range flowVars[fi] {
			x := sol.X[v]
			if x > 1e-9*f.vol {
				s.Fraction[ch] = x / f.vol
			}
		}
		splits = append(splits, s)
	}
	return res, &RoutingTable{Topo: t, Splits: splits}, nil
}
