package milp

import (
	"context"
	"math"
	"math/rand"
	"testing"
	"time"

	"rahtm/internal/lp"
)

func wantStatus(t *testing.T, res *Result, want Status) {
	t.Helper()
	if res.Status != want {
		t.Fatalf("status = %v, want %v (x=%v obj=%v nodes=%d)", res.Status, want, res.X, res.Objective, res.Nodes)
	}
}

func wantObj(t *testing.T, res *Result, want float64) {
	t.Helper()
	if math.Abs(res.Objective-want) > 1e-6*(1+math.Abs(want)) {
		t.Fatalf("objective = %v, want %v (x=%v)", res.Objective, want, res.X)
	}
}

// Simple knapsack: maximize 5a+4b+3c s.t. 2a+3b+c <= 5, binaries.
// Optimum: a=1, c=1 -> wait, 2+1=3 <= 5, value 8; a=1,b=1 -> 5 <= 5, value 9.
func TestKnapsackBinary(t *testing.T) {
	base := lp.NewProblem(0)
	p := NewProblem(base)
	a := p.AddBinary(-5, "a")
	b := p.AddBinary(-4, "b")
	c := p.AddBinary(-3, "c")
	base.AddConstraint([]lp.Term{{Var: a, Coef: 2}, {Var: b, Coef: 3}, {Var: c, Coef: 1}}, lp.LE, 5)
	res := p.SolveCtx(context.Background(), Options{})
	wantStatus(t, res, Optimal)
	wantObj(t, res, -9)
	if math.Abs(res.X[a]-1) > 1e-6 || math.Abs(res.X[b]-1) > 1e-6 || math.Abs(res.X[c]) > 1e-6 {
		t.Fatalf("x = %v, want (1,1,0)", res.X)
	}
}

// A MILP whose LP relaxation is fractional: max x+y s.t. 2x+2y <= 3, binaries.
// Relaxation gives 1.5; integer optimum is 1.
func TestFractionalRelaxation(t *testing.T) {
	base := lp.NewProblem(0)
	p := NewProblem(base)
	x := p.AddBinary(-1, "x")
	y := p.AddBinary(-1, "y")
	base.AddConstraint([]lp.Term{{Var: x, Coef: 2}, {Var: y, Coef: 2}}, lp.LE, 3)
	res := p.SolveCtx(context.Background(), Options{})
	wantStatus(t, res, Optimal)
	wantObj(t, res, -1)
}

func TestInfeasibleMILP(t *testing.T) {
	base := lp.NewProblem(0)
	p := NewProblem(base)
	x := p.AddBinary(1, "x")
	y := p.AddBinary(1, "y")
	// x + y == 2 with x + y <= 1: infeasible.
	base.AddConstraint([]lp.Term{{Var: x, Coef: 1}, {Var: y, Coef: 1}}, lp.EQ, 2)
	base.AddConstraint([]lp.Term{{Var: x, Coef: 1}, {Var: y, Coef: 1}}, lp.LE, 1)
	res := p.SolveCtx(context.Background(), Options{})
	wantStatus(t, res, Infeasible)
}

// General integers: min x s.t. 3x >= 10 -> x = 4.
func TestGeneralInteger(t *testing.T) {
	base := lp.NewProblem(1)
	base.SetObjectiveCoef(0, 1)
	base.AddConstraint([]lp.Term{{Var: 0, Coef: 3}}, lp.GE, 10)
	p := NewProblem(base)
	p.MarkInteger(0)
	res := p.SolveCtx(context.Background(), Options{})
	wantStatus(t, res, Optimal)
	wantObj(t, res, 4)
}

// Assignment problem as MILP (LP relaxation is already integral, but the
// B&B must recognize it immediately).
func TestAssignmentIntegralRelaxation(t *testing.T) {
	cost := [][]float64{
		{4, 2, 8},
		{4, 3, 7},
		{3, 1, 6},
	}
	base := lp.NewProblem(0)
	p := NewProblem(base)
	v := make([][]int, 3)
	for i := range v {
		v[i] = make([]int, 3)
		for j := range v[i] {
			v[i][j] = p.AddBinary(cost[i][j], "")
		}
	}
	for i := 0; i < 3; i++ {
		var rowT, colT []lp.Term
		for j := 0; j < 3; j++ {
			rowT = append(rowT, lp.Term{Var: v[i][j], Coef: 1})
			colT = append(colT, lp.Term{Var: v[j][i], Coef: 1})
		}
		base.AddConstraint(rowT, lp.EQ, 1)
		base.AddConstraint(colT, lp.EQ, 1)
	}
	res := p.SolveCtx(context.Background(), Options{})
	wantStatus(t, res, Optimal)
	// Optimal assignment: (0,1)=2,(1,2)=7,(2,0)=3 -> 12; check alternatives:
	// (0,0)=4,(1,2)=7,(2,1)=1 -> 12; (0,1)? both 12.
	wantObj(t, res, 12)
	if res.Nodes > 10 {
		t.Errorf("expected near-immediate solve for integral relaxation, used %d nodes", res.Nodes)
	}
}

func TestIncumbentWarmStart(t *testing.T) {
	base := lp.NewProblem(0)
	p := NewProblem(base)
	x := p.AddBinary(-1, "x")
	y := p.AddBinary(-1, "y")
	base.AddConstraint([]lp.Term{{Var: x, Coef: 2}, {Var: y, Coef: 2}}, lp.LE, 3)
	inc := make([]float64, base.NumVariables())
	inc[x] = 1 // feasible: 2 <= 3
	res := p.SolveCtx(context.Background(), Options{Incumbent: inc})
	wantStatus(t, res, Optimal)
	wantObj(t, res, -1)
}

func TestBadIncumbentIgnored(t *testing.T) {
	base := lp.NewProblem(0)
	p := NewProblem(base)
	x := p.AddBinary(-1, "x")
	base.AddConstraint([]lp.Term{{Var: x, Coef: 1}}, lp.LE, 0)
	inc := make([]float64, base.NumVariables())
	inc[x] = 1 // violates x <= 0
	res := p.SolveCtx(context.Background(), Options{Incumbent: inc})
	wantStatus(t, res, Optimal)
	wantObj(t, res, 0)
}

func TestDeadlineReturnsIncumbent(t *testing.T) {
	// A deliberately awkward problem plus an already-expired deadline: the
	// solver must return the provided incumbent without exploring.
	base := lp.NewProblem(0)
	p := NewProblem(base)
	n := 12
	vars := make([]int, n)
	terms := make([]lp.Term, n)
	for i := 0; i < n; i++ {
		vars[i] = p.AddBinary(-float64(i+1), "")
		terms[i] = lp.Term{Var: vars[i], Coef: float64(2*i + 3)}
	}
	base.AddConstraint(terms, lp.LE, 17)
	inc := make([]float64, base.NumVariables())
	inc[vars[0]] = 1
	res := p.SolveCtx(context.Background(), Options{Incumbent: inc, Deadline: time.Now().Add(-time.Second)})
	wantStatus(t, res, Feasible)
	if res.X == nil || math.Abs(res.X[vars[0]]-1) > 1e-9 {
		t.Fatalf("incumbent not preserved: %v", res.X)
	}
}

func TestNodeBudget(t *testing.T) {
	base := lp.NewProblem(0)
	p := NewProblem(base)
	n := 14
	terms := make([]lp.Term, n)
	for i := 0; i < n; i++ {
		v := p.AddBinary(-float64(7+i%5), "")
		terms[i] = lp.Term{Var: v, Coef: float64(5 + (i*3)%7)}
	}
	base.AddConstraint(terms, lp.LE, 23)
	res := p.SolveCtx(context.Background(), Options{MaxNodes: 3})
	if res.Nodes > 3 {
		t.Fatalf("node budget exceeded: %d", res.Nodes)
	}
}

func TestMarkIntegerIdempotent(t *testing.T) {
	base := lp.NewProblem(3)
	p := NewProblem(base)
	p.MarkInteger(2)
	p.MarkInteger(0)
	p.MarkInteger(2)
	p.MarkInteger(1)
	got := p.IntegerVariables()
	if len(got) != 3 || got[0] != 0 || got[1] != 1 || got[2] != 2 {
		t.Fatalf("IntegerVariables = %v", got)
	}
}

func TestStatusString(t *testing.T) {
	for s, want := range map[Status]string{
		Optimal: "optimal", Feasible: "feasible", Infeasible: "infeasible", Unknown: "unknown",
	} {
		if s.String() != want {
			t.Fatalf("got %q want %q", s.String(), want)
		}
	}
}

// Randomized cross-check against exhaustive enumeration over binaries.
func TestRandomBinaryMILPAgainstBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 60; trial++ {
		n := 2 + rng.Intn(6) // up to 7 binaries -> 128 points
		m := 1 + rng.Intn(3)
		c := make([]float64, n)
		for j := range c {
			c[j] = float64(rng.Intn(21) - 10)
		}
		a := make([][]float64, m)
		b := make([]float64, m)
		for i := range a {
			a[i] = make([]float64, n)
			for j := range a[i] {
				a[i][j] = float64(rng.Intn(9) - 2)
			}
			b[i] = float64(rng.Intn(12))
		}

		// Brute force over all 2^n assignments.
		best := math.Inf(1)
		feasAny := false
		for mask := 0; mask < 1<<n; mask++ {
			ok := true
			for i := 0; i < m && ok; i++ {
				lhs := 0.0
				for j := 0; j < n; j++ {
					if mask>>j&1 == 1 {
						lhs += a[i][j]
					}
				}
				if lhs > b[i]+1e-9 {
					ok = false
				}
			}
			if !ok {
				continue
			}
			feasAny = true
			obj := 0.0
			for j := 0; j < n; j++ {
				if mask>>j&1 == 1 {
					obj += c[j]
				}
			}
			if obj < best {
				best = obj
			}
		}

		base := lp.NewProblem(0)
		p := NewProblem(base)
		vars := make([]int, n)
		for j := 0; j < n; j++ {
			vars[j] = p.AddBinary(c[j], "")
		}
		for i := 0; i < m; i++ {
			var terms []lp.Term
			for j := 0; j < n; j++ {
				if a[i][j] != 0 {
					terms = append(terms, lp.Term{Var: vars[j], Coef: a[i][j]})
				}
			}
			b0 := b[i]
			if len(terms) == 0 && b0 >= 0 {
				continue
			}
			base.AddConstraint(terms, lp.LE, b0)
		}
		res := p.SolveCtx(context.Background(), Options{})
		if !feasAny {
			wantStatus(t, res, Infeasible)
			continue
		}
		wantStatus(t, res, Optimal)
		if math.Abs(res.Objective-best) > 1e-6*(1+math.Abs(best)) {
			t.Fatalf("trial %d: obj %v, brute force %v (n=%d m=%d)", trial, res.Objective, best, n, m)
		}
	}
}
