package hiermap

import (
	"context"
	"fmt"
	"time"

	"rahtm/internal/graph"
	"rahtm/internal/lp"
	"rahtm/internal/milp"
	"rahtm/internal/routing"
	"rahtm/internal/sched"
	"rahtm/internal/telemetry"
	"rahtm/internal/topology"
)

// solveMILP builds and solves the paper's Table II formulation.
//
// The cube is always modelled as a 2-ary n-mesh; the root torus case is
// handled, exactly as in §III-C, by giving every link double capacity
// (a 2-ary n-torus is a 2-ary n-mesh with double-wide links). Minimal
// routing is enforced by constraint C3: per flow, a binary r_{i,dim} allows
// flow in only one direction within each dimension.
func solveMILP(ctx context.Context, g *graph.Comm, cube *topology.Torus, shape []int, cfg Config) (*Result, error) {
	if err := sched.HardCancel(ctx); err != nil {
		return nil, err
	}
	if sched.Expired(ctx) {
		// No time left even for model construction: fall back to the
		// annealing seed, which degrades to its first valid placement.
		res, err := solveAnneal(ctx, g, cube, cfg)
		if err != nil {
			return nil, err
		}
		res.Degraded = true
		return res, nil
	}
	mesh := topology.NewMesh(shape...)
	n := mesh.N()
	flows := g.Flows()

	base := lp.NewProblem(0)
	prob := milp.NewProblem(base)
	z := base.AddVariable(1, "mcl")

	// Placement variables g_{a,v}.
	gVar := make([][]int, n)
	for a := 0; a < n; a++ {
		gVar[a] = make([]int, n)
		for v := 0; v < n; v++ {
			gVar[a][v] = prob.AddBinary(0, fmt.Sprintf("g_%d_%d", a, v))
		}
	}

	// Directed mesh edges.
	type edge struct {
		ch, from, to, dim, dir int
	}
	var edges []edge
	edgeOf := make(map[int]int) // channel id -> edge index
	for v := 0; v < n; v++ {
		for dim := 0; dim < mesh.NumDims(); dim++ {
			for dir := 0; dir < 2; dir++ {
				to, ok := mesh.NeighborRank(v, dim, dir)
				if !ok {
					continue
				}
				ch := mesh.ChannelID(v, dim, dir)
				edgeOf[ch] = len(edges)
				edges = append(edges, edge{ch: ch, from: v, to: to, dim: dim, dir: dir})
			}
		}
	}

	// Flow variables f_{i,e} and direction binaries r_{i,dim}.
	fVar := make([][]int, len(flows))
	rVar := make([][]int, len(flows))
	for i, fl := range flows {
		fVar[i] = make([]int, len(edges))
		for e := range edges {
			fVar[i][e] = base.AddVariable(0, fmt.Sprintf("f_%d_e%d", i, e))
		}
		rVar[i] = make([]int, mesh.NumDims())
		for dim := 0; dim < mesh.NumDims(); dim++ {
			rVar[i][dim] = prob.AddBinary(0, fmt.Sprintf("r_%d_%d", i, dim))
		}
		_ = fl
	}

	// C1: every cluster on exactly one vertex; every vertex at most one.
	for a := 0; a < n; a++ {
		terms := make([]lp.Term, n)
		for v := 0; v < n; v++ {
			terms[v] = lp.Term{Var: gVar[a][v], Coef: 1}
		}
		base.AddConstraint(terms, lp.EQ, 1)
	}
	for v := 0; v < n; v++ {
		terms := make([]lp.Term, n)
		for a := 0; a < n; a++ {
			terms[a] = lp.Term{Var: gVar[a][v], Coef: 1}
		}
		base.AddConstraint(terms, lp.LE, 1)
	}

	// C2: flow conservation with floating endpoints:
	// sum_out f - sum_in f - l*g_{s,v} + l*g_{d,v} = 0 at every vertex.
	for i, fl := range flows {
		for v := 0; v < n; v++ {
			var terms []lp.Term
			for e, ed := range edges {
				if ed.from == v {
					terms = append(terms, lp.Term{Var: fVar[i][e], Coef: 1})
				} else if ed.to == v {
					terms = append(terms, lp.Term{Var: fVar[i][e], Coef: -1})
				}
			}
			terms = append(terms,
				lp.Term{Var: gVar[fl.Src][v], Coef: -fl.Vol},
				lp.Term{Var: gVar[fl.Dst][v], Coef: fl.Vol},
			)
			base.AddConstraint(terms, lp.EQ, 0)
		}
	}

	// C3: one direction per dimension per flow.
	for i, fl := range flows {
		for e, ed := range edges {
			if ed.dir == topology.Plus {
				// f <= l * r
				base.AddConstraint([]lp.Term{
					{Var: fVar[i][e], Coef: 1},
					{Var: rVar[i][ed.dim], Coef: -fl.Vol},
				}, lp.LE, 0)
			} else {
				// f <= l * (1 - r)
				base.AddConstraint([]lp.Term{
					{Var: fVar[i][e], Coef: 1},
					{Var: rVar[i][ed.dim], Coef: fl.Vol},
				}, lp.LE, fl.Vol)
			}
		}
	}

	// Objective rows: sum_i f_i(e) <= cap * z.
	cap := 1.0
	if cfg.Torus {
		cap = 2.0
	}
	for e := range edges {
		terms := make([]lp.Term, 0, len(flows)+1)
		for i := range flows {
			terms = append(terms, lp.Term{Var: fVar[i][e], Coef: 1})
		}
		terms = append(terms, lp.Term{Var: z, Coef: -cap})
		base.AddConstraint(terms, lp.LE, 0)
	}

	// Symmetry breaking: the hyperoctahedral group acts transitively on the
	// cube's vertices, so cluster 0 can be pinned to vertex 0 without loss
	// of optimality.
	if n > 1 {
		base.AddConstraint([]lp.Term{{Var: gVar[0][0], Coef: 1}}, lp.EQ, 1)
	}

	// Warm-start incumbent from annealing (or the identity when trivial).
	incumbent, err := buildIncumbent(ctx, g, mesh, cube, flows, base.NumVariables(), z, gVar, fVar, rVar, edgeOf, cap, cfg)
	if err != nil {
		return nil, err
	}

	budget := cfg.MILPDeadline
	if budget <= 0 {
		budget = 30 * time.Second
	}
	deadline := time.Now().Add(budget)
	if d, ok := ctx.Deadline(); ok && d.Before(deadline) {
		deadline = d
	}
	res := prob.SolveCtx(ctx, milp.Options{
		Deadline:  deadline,
		MaxNodes:  cfg.MILPMaxNodes,
		Incumbent: incumbent,
	})
	if err := sched.HardCancel(ctx); err != nil {
		return nil, err
	}
	if res.X == nil {
		return nil, fmt.Errorf("hiermap: MILP found no feasible mapping (status %v)", res.Status)
	}

	mapping := make(topology.Mapping, n)
	for a := 0; a < n; a++ {
		pos := -1
		for v := 0; v < n; v++ {
			if res.X[gVar[a][v]] > 0.5 {
				pos = v
				break
			}
		}
		if pos < 0 {
			return nil, fmt.Errorf("hiermap: MILP solution leaves cluster %d unplaced", a)
		}
		mapping[a] = pos
	}
	return &Result{
		Mapping:  mapping,
		MCL:      routing.MaxChannelLoad(cube, g, mapping, routing.MinimalAdaptive{}.WithScope(telemetry.ScopeFrom(ctx))),
		Method:   MILP,
		Proved:   res.Status == milp.Optimal,
		Degraded: sched.Expired(ctx),
	}, nil
}

// buildIncumbent converts an annealed placement into a full MILP variable
// assignment: g from the placement, f from the uniform minimal-path split
// on the mesh (which respects C3 because meshes have a unique minimal
// direction per dimension), r from the travel directions. Returns a nil
// slice (and nil error) when the placement cannot be pinned to the
// symmetry-broken form; a non-nil error only on hard cancellation.
func buildIncumbent(ctx context.Context, g *graph.Comm, mesh, cube *topology.Torus, flows []graph.Flow,
	numVars, z int, gVar, fVar [][]int, rVar [][]int, edgeOf map[int]int, cap float64, cfg Config) ([]float64, error) {

	seedRes, err := solveAnneal(ctx, g, cube, Config{
		AnnealIters:    cfg.AnnealIters,
		AnnealRestarts: 1,
		Seed:           cfg.Seed,
	})
	if err != nil {
		if sched.HardCancel(ctx) != nil {
			return nil, err
		}
		return nil, nil
	}
	m := seedRes.Mapping
	// Respect the symmetry-breaking pin g_{0,0}=1 by composing with a cube
	// automorphism that sends m[0] to vertex 0: flip every dimension where
	// m[0] has coordinate 1.
	c0 := mesh.CoordOf(m[0], nil)
	relabel := make([]int, mesh.N())
	for v := 0; v < mesh.N(); v++ {
		cv := mesh.CoordOf(v, nil)
		for d := range cv {
			if c0[d] == 1 {
				cv[d] = mesh.Dim(d) - 1 - cv[d]
			}
		}
		relabel[v] = mesh.RankOf(cv)
	}
	m = m.ComposeNodes(relabel)

	x := make([]float64, numVars)
	for a, v := range m {
		x[gVar[a][v]] = 1
	}
	maxLoad := 0.0
	loads := make([]float64, mesh.NumChannels())
	alg := routing.MinimalAdaptive{}.WithScope(telemetry.ScopeFrom(ctx))
	for i, fl := range flows {
		for j := range loads {
			loads[j] = 0
		}
		alg.AddLoads(mesh, m[fl.Src], m[fl.Dst], fl.Vol, loads)
		dirUsed := make([]int, mesh.NumDims())
		for d := range dirUsed {
			dirUsed[d] = -1
		}
		for ch, v := range loads {
			if v == 0 {
				continue
			}
			e, ok := edgeOf[ch]
			if !ok {
				return nil, nil
			}
			x[fVar[i][e]] = v
			_, dim, dir := mesh.DecodeChannel(ch)
			dirUsed[dim] = dir
		}
		for d, dir := range dirUsed {
			if dir == topology.Plus {
				x[rVar[i][d]] = 1
			}
		}
	}
	// Aggregate loads for z.
	total := make([]float64, mesh.NumChannels())
	for _, fl := range flows {
		alg.AddLoads(mesh, m[fl.Src], m[fl.Dst], fl.Vol, total)
	}
	for _, v := range total {
		if v > maxLoad {
			maxLoad = v
		}
	}
	x[z] = maxLoad / cap
	return x, nil
}
