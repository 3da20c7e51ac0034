package lp

import (
	"context"
	"math"
	"testing"
)

const testTol = 1e-6

func solveOK(t *testing.T, p *Problem) *Solution {
	t.Helper()
	sol, err := p.SolveCtx(context.Background(), Options{})
	if err != nil {
		t.Fatalf("Solve: %v\n%s", err, p)
	}
	if sol.Status != Optimal {
		t.Fatalf("status = %v, want optimal\n%s", sol.Status, p)
	}
	if !p.Feasible(sol.X, testTol) {
		t.Fatalf("solution %v infeasible\n%s", sol.X, p)
	}
	return sol
}

func wantObj(t *testing.T, sol *Solution, want float64) {
	t.Helper()
	if math.Abs(sol.Objective-want) > testTol*(1+math.Abs(want)) {
		t.Fatalf("objective = %v, want %v (x=%v)", sol.Objective, want, sol.X)
	}
}

// Classic production-planning LP: maximize 3x+5y s.t. x<=4, 2y<=12, 3x+2y<=18
// (Dantzig's example). Optimum at (2,6) with value 36; we minimize -3x-5y.
func TestSimplexTextbookMax(t *testing.T) {
	p := NewProblem(2)
	p.SetObjectiveCoef(0, -3)
	p.SetObjectiveCoef(1, -5)
	p.AddConstraint([]Term{{0, 1}}, LE, 4)
	p.AddConstraint([]Term{{1, 2}}, LE, 12)
	p.AddConstraint([]Term{{0, 3}, {1, 2}}, LE, 18)
	sol := solveOK(t, p)
	wantObj(t, sol, -36)
	if math.Abs(sol.X[0]-2) > testTol || math.Abs(sol.X[1]-6) > testTol {
		t.Fatalf("x = %v, want (2,6)", sol.X)
	}
}

func TestSimplexEquality(t *testing.T) {
	// min x+2y s.t. x+y = 10, x <= 4  ->  x=4, y=6, obj=16.
	p := NewProblem(2)
	p.SetObjectiveCoef(0, 1)
	p.SetObjectiveCoef(1, 2)
	p.AddConstraint([]Term{{0, 1}, {1, 1}}, EQ, 10)
	p.AddConstraint([]Term{{0, 1}}, LE, 4)
	sol := solveOK(t, p)
	wantObj(t, sol, 16)
}

func TestSimplexGE(t *testing.T) {
	// min 2x+3y s.t. x+y >= 5, x >= 1 -> (5,0) obj 10.
	p := NewProblem(2)
	p.SetObjectiveCoef(0, 2)
	p.SetObjectiveCoef(1, 3)
	p.AddConstraint([]Term{{0, 1}, {1, 1}}, GE, 5)
	p.AddConstraint([]Term{{0, 1}}, GE, 1)
	sol := solveOK(t, p)
	wantObj(t, sol, 10)
}

func TestSimplexNegativeRHS(t *testing.T) {
	// min x s.t. -x - y <= -5 (i.e. x+y >= 5), y <= 3 -> x = 2.
	p := NewProblem(2)
	p.SetObjectiveCoef(0, 1)
	p.AddConstraint([]Term{{0, -1}, {1, -1}}, LE, -5)
	p.AddConstraint([]Term{{1, 1}}, LE, 3)
	sol := solveOK(t, p)
	wantObj(t, sol, 2)
}

func TestSimplexInfeasible(t *testing.T) {
	p := NewProblem(1)
	p.SetObjectiveCoef(0, 1)
	p.AddConstraint([]Term{{0, 1}}, LE, 1)
	p.AddConstraint([]Term{{0, 1}}, GE, 2)
	sol, err := p.SolveCtx(context.Background(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != Infeasible {
		t.Fatalf("status = %v, want infeasible", sol.Status)
	}
}

func TestSimplexUnbounded(t *testing.T) {
	// min -x with only x >= 0: unbounded below.
	p := NewProblem(1)
	p.SetObjectiveCoef(0, -1)
	sol, err := p.SolveCtx(context.Background(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != Unbounded {
		t.Fatalf("status = %v, want unbounded", sol.Status)
	}
}

func TestSimplexUnboundedWithConstraint(t *testing.T) {
	// min -x + y s.t. y >= 1: x free to grow.
	p := NewProblem(2)
	p.SetObjectiveCoef(0, -1)
	p.SetObjectiveCoef(1, 1)
	p.AddConstraint([]Term{{1, 1}}, GE, 1)
	sol, err := p.SolveCtx(context.Background(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != Unbounded {
		t.Fatalf("status = %v, want unbounded", sol.Status)
	}
}

func TestSimplexDegenerate(t *testing.T) {
	// Beale's cycling example (classic anti-cycling stress test).
	// min -0.75x1 + 150x2 - 0.02x3 + 6x4
	// s.t. 0.25x1 - 60x2 - 0.04x3 + 9x4 <= 0
	//      0.5x1  - 90x2 - 0.02x3 + 3x4 <= 0
	//      x3 <= 1
	// Optimum: -0.05 at x = (0.04/0.8.. known value) -> objective -1/20.
	p := NewProblem(4)
	p.SetObjectiveCoef(0, -0.75)
	p.SetObjectiveCoef(1, 150)
	p.SetObjectiveCoef(2, -0.02)
	p.SetObjectiveCoef(3, 6)
	p.AddConstraint([]Term{{0, 0.25}, {1, -60}, {2, -0.04}, {3, 9}}, LE, 0)
	p.AddConstraint([]Term{{0, 0.5}, {1, -90}, {2, -0.02}, {3, 3}}, LE, 0)
	p.AddConstraint([]Term{{2, 1}}, LE, 1)
	sol := solveOK(t, p)
	wantObj(t, sol, -0.05)
}

func TestSimplexZeroVariables(t *testing.T) {
	p := NewProblem(0)
	p.AddObjectiveConstant(7)
	sol := solveOK(t, p)
	wantObj(t, sol, 7)
}

func TestSimplexRedundantEqualities(t *testing.T) {
	// Duplicate equality rows must not break phase 1 artificial cleanup.
	p := NewProblem(2)
	p.SetObjectiveCoef(0, 1)
	p.SetObjectiveCoef(1, 1)
	p.AddConstraint([]Term{{0, 1}, {1, 1}}, EQ, 4)
	p.AddConstraint([]Term{{0, 1}, {1, 1}}, EQ, 4)
	p.AddConstraint([]Term{{0, 2}, {1, 2}}, EQ, 8)
	sol := solveOK(t, p)
	wantObj(t, sol, 4)
}

func TestFixVariable(t *testing.T) {
	// min x + y s.t. x + y >= 3 with y fixed to 2 -> x = 1.
	p := NewProblem(2)
	p.SetObjectiveCoef(0, 1)
	p.SetObjectiveCoef(1, 1)
	p.AddConstraint([]Term{{0, 1}, {1, 1}}, GE, 3)
	p.FixVariable(1, 2)
	sol := solveOK(t, p)
	wantObj(t, sol, 3)
	if math.Abs(sol.X[1]-2) > testTol {
		t.Fatalf("fixed variable drifted: x = %v", sol.X)
	}
}

func TestCloneIndependence(t *testing.T) {
	p := NewProblem(1)
	p.SetObjectiveCoef(0, 1)
	p.AddConstraint([]Term{{0, 1}}, GE, 1)
	q := p.Clone()
	q.SetObjectiveCoef(0, -5)
	q.AddConstraint([]Term{{0, 1}}, LE, 9)
	if p.ObjectiveCoef(0) != 1 || p.NumConstraints() != 1 {
		t.Fatal("Clone shares state with original")
	}
	sol := solveOK(t, p)
	wantObj(t, sol, 1)
}

func TestObjectiveConstantOnly(t *testing.T) {
	p := NewProblem(1)
	p.AddObjectiveConstant(3.5)
	p.AddConstraint([]Term{{0, 1}}, LE, 10)
	sol := solveOK(t, p)
	wantObj(t, sol, 3.5)
}

func TestVariableNames(t *testing.T) {
	p := NewProblem(1)
	v := p.AddVariable(1, "flow")
	if got := p.VariableName(v); got != "flow" {
		t.Fatalf("VariableName = %q, want flow", got)
	}
	if got := p.VariableName(0); got != "x0" {
		t.Fatalf("VariableName = %q, want x0", got)
	}
}

func TestSenseString(t *testing.T) {
	if LE.String() != "<=" || GE.String() != ">=" || EQ.String() != "==" {
		t.Fatal("Sense.String mismatch")
	}
}

func TestStatusString(t *testing.T) {
	for s, want := range map[Status]string{
		Optimal: "optimal", Infeasible: "infeasible",
		Unbounded: "unbounded", IterLimit: "iteration-limit",
	} {
		if s.String() != want {
			t.Fatalf("Status(%d).String() = %q, want %q", s, s.String(), want)
		}
	}
}

// A transportation-style LP with a known integral optimum, to exercise a
// larger equality system.
func TestSimplexTransportation(t *testing.T) {
	// 2 supplies (10, 20), 3 demands (5, 10, 15); cost matrix:
	//   [2 4 5]
	//   [3 1 7]
	// Optimum 110: x13=10 (50), x21=5 (15), x22=10 (10), x23=5 (35).
	cost := [][]float64{{2, 4, 5}, {3, 1, 7}}
	supply := []float64{10, 20}
	demand := []float64{5, 10, 15}
	p := NewProblem(6) // x[i][j] -> 3*i+j
	for i := 0; i < 2; i++ {
		for j := 0; j < 3; j++ {
			p.SetObjectiveCoef(3*i+j, cost[i][j])
		}
	}
	for i := 0; i < 2; i++ {
		terms := []Term{{3 * i, 1}, {3*i + 1, 1}, {3*i + 2, 1}}
		p.AddConstraint(terms, EQ, supply[i])
	}
	for j := 0; j < 3; j++ {
		terms := []Term{{j, 1}, {3 + j, 1}}
		p.AddConstraint(terms, EQ, demand[j])
	}
	sol := solveOK(t, p)
	wantObj(t, sol, 110)
}
