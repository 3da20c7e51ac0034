// Package milp implements a branch-and-bound mixed integer linear program
// solver on top of the dense simplex in internal/lp.
//
// It is the substitute for the commercial CPLEX solver the RAHTM paper uses
// to solve the Table II mapping formulation. The solver supports:
//
//   - binary / general non-negative integer variables (branching adds bound
//     rows along the tree path; LP relaxations are re-solved from scratch,
//     which is cheap at the subproblem sizes RAHTM produces);
//   - best-bound search with depth-first plunging for early incumbents;
//   - warm starting from a caller-supplied incumbent (RAHTM seeds it with a
//     simulated-annealing mapping);
//   - a wall-clock deadline and node budget, after which the best incumbent
//     is returned (mirroring the paper's tolerance for hours-long offline
//     solves, scaled down).
//
// The search is sequential and deterministic: the Result (status,
// objective, solution vector, bound, node and iteration counts) is a pure
// function of the problem and the options.
package milp

import (
	"container/heap"
	"context"
	"math"
	"sort"
	"time"

	"rahtm/internal/lp"
	"rahtm/internal/telemetry"
)

// Branch-and-bound effort counters on the process-wide registry, flushed
// once per solve (never per node).
var (
	ctrMILPSolves = telemetry.Default.Counter(telemetry.CtrMILPSolves)
	ctrMILPNodes  = telemetry.Default.Counter(telemetry.CtrMILPNodes)
)

// Status reports the outcome of a MILP solve.
type Status int8

// Solve outcomes.
const (
	// Optimal means the incumbent was proved optimal within tolerance.
	Optimal Status = iota
	// Feasible means an integer solution was found but optimality was not
	// proved before the deadline or node budget ran out.
	Feasible
	// Infeasible means no integer-feasible point exists.
	Infeasible
	// Unknown means the search was cut off before finding any incumbent.
	Unknown
)

// String implements fmt.Stringer.
func (s Status) String() string {
	switch s {
	case Optimal:
		return "optimal"
	case Feasible:
		return "feasible"
	case Infeasible:
		return "infeasible"
	case Unknown:
		return "unknown"
	}
	return "bad-status"
}

// Problem couples an LP with integrality requirements. The LP is treated as
// a minimization and must keep all variables non-negative (the lp package
// convention). Binary variables should additionally carry an x <= 1 row,
// which AddBinary arranges.
type Problem struct {
	LP      *lp.Problem
	intVars []int // sorted variable indices required to be integral
}

// NewProblem wraps base (not copied; the solver clones per node).
func NewProblem(base *lp.Problem) *Problem {
	return &Problem{LP: base}
}

// MarkInteger requires variable v to take an integer value.
func (p *Problem) MarkInteger(v int) {
	i := sort.SearchInts(p.intVars, v)
	if i < len(p.intVars) && p.intVars[i] == v {
		return
	}
	p.intVars = append(p.intVars, 0)
	copy(p.intVars[i+1:], p.intVars[i:])
	p.intVars[i] = v
}

// AddBinary creates a fresh binary variable: objective coefficient c, an
// upper bound row x <= 1, and an integrality mark. Returns the index.
func (p *Problem) AddBinary(c float64, name string) int {
	v := p.LP.AddVariable(c, name)
	p.LP.AddConstraint([]lp.Term{{Var: v, Coef: 1}}, lp.LE, 1)
	p.MarkInteger(v)
	return v
}

// IntegerVariables returns the indices marked integral (sorted, shared slice —
// do not mutate).
func (p *Problem) IntegerVariables() []int { return p.intVars }

// Options tunes the branch-and-bound search. Zero values select defaults.
type Options struct {
	// Deadline, when non-zero, stops the search at that wall-clock time and
	// returns the incumbent.
	Deadline time.Time
	// MaxNodes bounds the number of branch-and-bound nodes (<= 0: 200000).
	MaxNodes int
	// Tol is the integrality/optimality tolerance (<= 0: 1e-6).
	Tol float64
	// Incumbent optionally provides a known integer-feasible solution used
	// to prune from the start. Objective is computed from the LP.
	Incumbent []float64
	// LPOptions is passed through to every relaxation solve.
	LPOptions lp.Options
}

// Result is the outcome of a MILP solve.
type Result struct {
	Status    Status
	X         []float64 // best integer solution found (nil when none)
	Objective float64   // objective of X
	Bound     float64   // best proved lower bound on the optimum
	Nodes     int       // number of branch-and-bound nodes processed
	LPIters   int       // simplex iterations summed over all relaxations
}

// branch is one bound change relative to the root problem.
type branch struct {
	v     int
	sense lp.Sense // LE (x <= k) or GE (x >= k)
	bound float64
}

// node is a live branch-and-bound node.
type node struct {
	bounds []branch
	lb     float64 // parent LP bound (priority)
	depth  int
}

type nodeHeap []*node

func (h nodeHeap) Len() int { return len(h) }
func (h nodeHeap) Less(i, j int) bool {
	if h[i].lb < h[j].lb {
		return true
	}
	if h[i].lb > h[j].lb {
		return false
	}
	return h[i].depth > h[j].depth // deeper first on tie: plunge
}
func (h nodeHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *nodeHeap) Push(x interface{}) { *h = append(*h, x.(*node)) }
func (h *nodeHeap) Pop() interface{} {
	old := *h
	n := len(old)
	it := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return it
}

// SolveCtx runs branch and bound and returns the best result found. When
// ctx is canceled or its deadline or Deadline expires the search stops at
// the next node boundary, and an in-flight LP relaxation aborts at its
// next pivot poll and its node stays open; the best incumbent found so far
// is returned. Optimal and Infeasible are claimed only for a tree that was
// exhausted with every relaxation solved to the end. Callers that must
// distinguish hard cancellation inspect ctx.Err() themselves.
func (p *Problem) SolveCtx(ctx context.Context, opt Options) *Result {
	tol := opt.Tol
	if tol <= 0 {
		tol = 1e-6
	}
	maxNodes := opt.MaxNodes
	if maxNodes <= 0 {
		maxNodes = 200000
	}

	res := &Result{Status: Unknown, Bound: math.Inf(-1)}
	scope := telemetry.ScopeFrom(ctx)
	defer func() {
		scope.CounterOr(telemetry.CtrMILPSolves, ctrMILPSolves).Inc()
		scope.CounterOr(telemetry.CtrMILPNodes, ctrMILPNodes).Add(int64(res.Nodes))
	}()
	open := &nodeHeap{{lb: math.Inf(-1)}}
	incObj := math.Inf(1)
	if opt.Incumbent != nil && p.integral(opt.Incumbent, tol) && p.LP.Feasible(opt.Incumbent, 1e-6) {
		res.X = append([]float64(nil), opt.Incumbent...)
		incObj = p.LP.Value(opt.Incumbent)
		res.Objective = incObj
		res.Status = Feasible
	}

	deadline := opt.Deadline
	checkDeadline := func() bool {
		return !deadline.IsZero() && time.Now().After(deadline)
	}
	// Each relaxation runs under the deadline too: a single one can take
	// longer than the whole budget.
	lpCtx := ctx
	if !deadline.IsZero() {
		var cancel context.CancelFunc
		lpCtx, cancel = context.WithDeadline(ctx, deadline)
		defer cancel()
	}
	for open.Len() > 0 {
		if res.Nodes >= maxNodes || checkDeadline() || ctx.Err() != nil {
			break
		}
		nd := heap.Pop(open).(*node)
		if nd.lb >= pruneThreshold(incObj, tol) {
			continue // pruned by bound
		}
		res.Nodes++

		sol, err := p.relax(lpCtx, nd, opt.LPOptions)
		if sol != nil {
			res.LPIters += sol.Iters
		}
		if err != nil {
			// Canceled mid-relaxation: the node stays open, so neither
			// optimality nor infeasibility is claimed and the bound
			// keeps its lb.
			heap.Push(open, nd)
			break
		}
		switch sol.Status {
		case lp.Infeasible:
			continue
		case lp.Unbounded:
			// An unbounded relaxation at the root means the MILP is
			// unbounded or the model is missing bounds; give up on this
			// subtree (RAHTM models are always bounded).
			continue
		case lp.IterLimit:
			continue
		}
		if sol.Objective >= pruneThreshold(incObj, tol) {
			continue
		}
		fracVar, fracVal := p.mostFractional(sol.X, tol)
		if fracVar < 0 {
			// Integer feasible: new incumbent.
			if sol.Objective < incObj {
				incObj = sol.Objective
				res.X = append(res.X[:0], sol.X...)
				res.Objective = incObj
				if res.Status == Unknown {
					res.Status = Feasible
				}
			}
			continue
		}
		// Branch on the most fractional variable; explore the side nearer
		// the relaxation value first (heap tie-break handles plunging).
		floorB := math.Floor(fracVal)
		heap.Push(open, &node{
			bounds: appendBranch(nd.bounds, branch{fracVar, lp.LE, floorB}),
			lb:     sol.Objective,
			depth:  nd.depth + 1,
		})
		heap.Push(open, &node{
			bounds: appendBranch(nd.bounds, branch{fracVar, lp.GE, floorB + 1}),
			lb:     sol.Objective,
			depth:  nd.depth + 1,
		})
	}

	// Lower bound: min over remaining open nodes and the incumbent.
	bound := incObj
	for _, nd := range *open {
		if nd.lb < bound {
			bound = nd.lb
		}
	}
	res.Bound = bound
	// Optimality and infeasibility may only be claimed when the search tree
	// was actually exhausted, not cut short by cancellation.
	if ctx.Err() == nil {
		if res.Status == Feasible && open.Len() == 0 && res.Nodes < maxNodes {
			res.Status = Optimal
			res.Bound = incObj
		}
		if res.Status == Unknown && open.Len() == 0 && res.Nodes > 0 {
			res.Status = Infeasible
		}
	}
	return res
}

// relax clones the root LP, applies the node's branching bounds and solves
// the relaxation.
func (p *Problem) relax(ctx context.Context, nd *node, opt lp.Options) (*lp.Solution, error) {
	rel := p.LP.Clone()
	for _, b := range nd.bounds {
		rel.AddConstraint([]lp.Term{{Var: b.v, Coef: 1}}, b.sense, b.bound)
	}
	return rel.SolveCtx(ctx, opt)
}

// pruneThreshold is the objective value at or above which a node cannot
// improve the incumbent: incObj - tol*(1+|incObj|), kept at +Inf while no
// incumbent exists (the subtraction would otherwise yield NaN).
func pruneThreshold(incObj, tol float64) float64 {
	if math.IsInf(incObj, 1) {
		return incObj
	}
	return incObj - tol*(1+math.Abs(incObj))
}

func appendBranch(bs []branch, b branch) []branch {
	out := make([]branch, len(bs)+1)
	copy(out, bs)
	out[len(bs)] = b
	return out
}

// mostFractional returns the integer-marked variable whose value is furthest
// from an integer, or (-1, 0) when all are integral within tol.
func (p *Problem) mostFractional(x []float64, tol float64) (int, float64) {
	bestVar := -1
	bestDist := tol
	bestVal := 0.0
	for _, v := range p.intVars {
		if v >= len(x) {
			continue
		}
		f := x[v] - math.Floor(x[v])
		dist := math.Min(f, 1-f)
		if dist > bestDist {
			bestDist = dist
			bestVar = v
			bestVal = x[v]
		}
	}
	return bestVar, bestVal
}

func (p *Problem) integral(x []float64, tol float64) bool {
	v, _ := p.mostFractional(x, tol)
	return v < 0
}
