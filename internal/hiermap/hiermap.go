// Package hiermap implements Phase 2 of RAHTM: optimally mapping a cluster
// communication graph onto a small 2-ary n-cube (a {1,2}^n mesh, or the
// "double-wide link" 2-ary torus at the root level).
//
// Three solvers are provided:
//
//   - MILP: the paper's Table II mixed integer linear program — binary
//     placement variables g, per-flow per-edge flow variables f, binary
//     per-flow per-dimension direction variables r enforcing minimal
//     routing, minimizing the maximum channel load. Solved by the
//     branch-and-bound in internal/milp.
//   - Exhaustive: enumerate all |V|! placements and score each with the
//     balanced all-minimal-paths evaluator; exact for the uniform-split
//     routing model and fast up to 8-node cubes.
//   - Anneal: seeded simulated annealing over placements, for cubes too
//     large to enumerate.
//
// Method Auto picks Exhaustive for cubes of at most 8 nodes and Anneal
// above, with the MILP available explicitly (it is exact for the
// optimal-split routing model but costs branch-and-bound time).
package hiermap

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"time"

	"rahtm/internal/graph"
	"rahtm/internal/routing"
	"rahtm/internal/sched"
	"rahtm/internal/telemetry"
	"rahtm/internal/topology"
)

// Annealing acceptance counters on the process-wide registry. The hot loop
// accumulates plain locals and flushes once per solve.
var (
	ctrAnnealMoves    = telemetry.Default.Counter(telemetry.CtrAnnealMoves)
	ctrAnnealAccepted = telemetry.Default.Counter(telemetry.CtrAnnealAccepted)
	ctrAnnealRestarts = telemetry.Default.Counter(telemetry.CtrAnnealRestarts)
)

// Method selects the subproblem solver.
type Method int8

// Solver methods.
const (
	Auto       Method = iota // Exhaustive for <= 8 nodes, Anneal above
	MILP                     // Table II mixed integer program
	Exhaustive               // all placements, uniform-split evaluator
	Anneal                   // simulated annealing, uniform-split evaluator
)

// String implements fmt.Stringer.
func (m Method) String() string {
	switch m {
	case Auto:
		return "auto"
	case MILP:
		return "milp"
	case Exhaustive:
		return "exhaustive"
	case Anneal:
		return "anneal"
	}
	return "bad-method"
}

// Config tunes the solvers. The zero value is usable.
type Config struct {
	Method Method
	// Torus evaluates the cube with wrapped (double-wide) links, as the
	// paper does for the root 2-ary n-torus.
	Torus bool
	// MILPDeadline bounds the branch-and-bound (0 = 30s).
	MILPDeadline time.Duration
	// MILPMaxNodes bounds branch-and-bound nodes (0 = default).
	MILPMaxNodes int
	// AnnealIters is the annealing step count (0 = 40 * |V|^2).
	AnnealIters int
	// AnnealRestarts is the number of independent annealing runs (0 = 4).
	AnnealRestarts int
	// Seed makes annealing deterministic.
	Seed int64
}

// Result of mapping a cluster graph onto a cube.
type Result struct {
	Mapping topology.Mapping // cluster -> cube position (row-major in shape)
	MCL     float64          // achieved maximum channel load (uniform-split model)
	Method  Method           // solver that produced the mapping
	Proved  bool             // true when the solver proved optimality
	// Degraded is set when the context deadline expired mid-solve and the
	// mapping is the best found so far rather than the full search result.
	Degraded bool
}

// MapCtx places the |V| clusters of g onto the cube with the given {1,2}^n
// shape (|V| must equal the cube size). Hard cancellation aborts the solver
// at its next poll and returns ctx.Err(); an expired deadline degrades
// gracefully — the solver stops searching and returns its best-so-far valid
// placement with Result.Degraded set.
func MapCtx(ctx context.Context, g *graph.Comm, shape []int, cfg Config) (*Result, error) {
	if err := sched.HardCancel(ctx); err != nil {
		return nil, err
	}
	size := 1
	for _, s := range shape {
		if s != 1 && s != 2 {
			return nil, fmt.Errorf("hiermap: shape %v is not a 2-ary cube", shape)
		}
		size *= s
	}
	if g.N() != size {
		return nil, fmt.Errorf("hiermap: graph has %d clusters, cube has %d positions", g.N(), size)
	}
	cube := cubeTopology(shape, cfg.Torus)

	method := cfg.Method
	if method == Auto {
		if size <= 8 {
			method = Exhaustive
		} else {
			method = Anneal
		}
	}
	switch method {
	case Exhaustive:
		return solveExhaustive(ctx, g, cube)
	case Anneal:
		return solveAnneal(ctx, g, cube, cfg)
	case MILP:
		return solveMILP(ctx, g, cube, shape, cfg)
	}
	return nil, fmt.Errorf("hiermap: unknown method %v", cfg.Method)
}

// cubeTopology builds the evaluation topology for a cube shape.
func cubeTopology(shape []int, torus bool) *topology.Torus {
	if torus {
		return topology.NewTorus(shape...)
	}
	return topology.NewMesh(shape...)
}

// EvaluateWith scores an existing placement with the uniform-split model
// under the caller's evaluator, so request-scoped callers
// (routing.MinimalAdaptive.WithScope) keep their stencil attribution.
func EvaluateWith(g *graph.Comm, shape []int, torus bool, m topology.Mapping, alg routing.MinimalAdaptive) float64 {
	return routing.MaxChannelLoad(cubeTopology(shape, torus), g, m, alg)
}

// solveExhaustive tries every placement. Feasible for cubes up to 8 nodes
// (8! = 40320 placements). Cancellation is polled every 1024 evaluations;
// deadline expiry returns the best placement seen so far as degraded.
func solveExhaustive(ctx context.Context, g *graph.Comm, cube *topology.Torus) (*Result, error) {
	n := cube.N()
	if n > 10 {
		return nil, fmt.Errorf("hiermap: exhaustive search on %d nodes is too large", n)
	}
	perm := make([]int, n)
	for i := range perm {
		perm[i] = i
	}
	best := append(topology.Mapping(nil), perm...)
	bestMCL := math.Inf(1)
	tab := routing.MinimalAdaptive{}.WithScope(telemetry.ScopeFrom(ctx)).Table(cube)
	defer tab.Flush()
	flows := g.Flows()
	loads := make([]float64, cube.NumChannels())
	// Heap's algorithm over placements.
	c := make([]int, n)
	evals := 0
	degraded := false
	var ctxErr error
	evalCur := func() {
		mcl := routeAll(tab, flows, perm, loads)
		if mcl < bestMCL {
			bestMCL = mcl
			copy(best, perm)
		}
	}
	// stop polls the context; true aborts the enumeration.
	stop := func() bool {
		evals++
		if evals&1023 != 0 {
			return false
		}
		if err := sched.HardCancel(ctx); err != nil {
			ctxErr = err
			return true
		}
		degraded = sched.Expired(ctx)
		return degraded
	}
	evalCur()
	i := 0
	for i < n {
		if c[i] < i {
			if i%2 == 0 {
				perm[0], perm[i] = perm[i], perm[0]
			} else {
				perm[c[i]], perm[i] = perm[i], perm[c[i]]
			}
			evalCur()
			if stop() {
				break
			}
			c[i]++
			i = 0
		} else {
			c[i] = 0
			i++
		}
	}
	if ctxErr != nil {
		return nil, ctxErr
	}
	if degraded {
		return &Result{Mapping: best, MCL: bestMCL, Method: Exhaustive, Degraded: true}, nil
	}
	return &Result{Mapping: best, MCL: bestMCL, Method: Exhaustive, Proved: true}, nil
}

// solveAnneal runs restart simulated annealing over placements with
// pairwise-swap moves and incremental channel-load maintenance. The context
// is polled every 256 steps: hard cancellation aborts with ctx.Err(), an
// expired deadline returns the best placement found so far as degraded.
func solveAnneal(ctx context.Context, g *graph.Comm, cube *topology.Torus, cfg Config) (*Result, error) {
	n := cube.N()
	iters := cfg.AnnealIters
	if iters <= 0 {
		iters = 40 * n * n
	}
	restarts := cfg.AnnealRestarts
	if restarts <= 0 {
		restarts = 4
	}
	rng := rand.New(rand.NewSource(cfg.Seed + 1))

	var best topology.Mapping
	bestMCL := math.Inf(1)
	degraded := false
	var moves, accepted, restartsRun int64
	scope := telemetry.ScopeFrom(ctx)
	tab := routing.MinimalAdaptive{}.WithScope(scope).Table(cube)
	defer tab.Flush()
	defer func() {
		scope.CounterOr(telemetry.CtrAnnealMoves, ctrAnnealMoves).Add(moves)
		scope.CounterOr(telemetry.CtrAnnealAccepted, ctrAnnealAccepted).Add(accepted)
		scope.CounterOr(telemetry.CtrAnnealRestarts, ctrAnnealRestarts).Add(restartsRun)
	}()
restartLoop:
	for r := 0; r < restarts; r++ {
		restartsRun++
		ev := newIncEval(g, cube, topology.Mapping(rng.Perm(n)), tab)
		curMCL := ev.mcl()
		if curMCL < bestMCL {
			bestMCL = curMCL
			best = ev.cur.Clone()
		}
		// Geometric cooling from a temperature scaled to the data.
		t0 := curMCL/2 + 1e-9
		alpha := math.Pow(1e-3, 1/float64(iters)) // t ends at t0/1000
		temp := t0
		for it := 0; it < iters; it++ {
			if it&255 == 0 {
				if err := sched.HardCancel(ctx); err != nil {
					return nil, err
				}
				if sched.Expired(ctx) {
					degraded = true
					break restartLoop
				}
			}
			i, j := rng.Intn(n), rng.Intn(n)
			if i == j {
				continue
			}
			mcl := ev.swap(i, j)
			moves++
			if mcl <= curMCL || rng.Float64() < math.Exp((curMCL-mcl)/temp) {
				accepted++
				curMCL = mcl
				if mcl < bestMCL {
					bestMCL = mcl
					best = ev.cur.Clone()
				}
			} else {
				ev.swap(i, j) // reject: undo
			}
			temp *= alpha
		}
	}
	// bestMCL is the incremental evaluator's value, which drifts from a
	// fresh evaluation over thousands of signed updates; report the MCL the
	// returned mapping has.
	bestMCL = routeAll(tab, g.Flows(), best, make([]float64, cube.NumChannels()))
	return &Result{Mapping: best, MCL: bestMCL, Method: Anneal, Degraded: degraded}, nil
}
