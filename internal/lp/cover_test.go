package lp

import (
	"context"
	"math"
	"strings"
	"testing"
)

func TestProblemString(t *testing.T) {
	p := NewProblem(2)
	p.SetObjectiveCoef(0, 2)
	p.AddObjectiveConstant(1)
	p.AddConstraint([]Term{{Var: 0, Coef: 1}, {Var: 1, Coef: -3}}, LE, 5)
	p.AddConstraint([]Term{{Var: 1, Coef: 2}}, GE, 1)
	p.AddConstraint([]Term{{Var: 0, Coef: 1}}, EQ, 2)
	s := p.String()
	for _, want := range []string{"min ", "2*x0", "<= 5", ">= 1", "== 2", "-3*x1"} {
		if !strings.Contains(s, want) {
			t.Fatalf("String() missing %q:\n%s", want, s)
		}
	}
	// Constant-only objective renders too.
	empty := NewProblem(0)
	empty.AddObjectiveConstant(4)
	if !strings.Contains(empty.String(), "4") {
		t.Fatalf("constant objective missing: %s", empty.String())
	}
}

func TestAccessors(t *testing.T) {
	p := NewProblem(1)
	if p.NumVariables() != 1 || p.NumConstraints() != 0 {
		t.Fatal("counts wrong")
	}
	p.AddObjectiveConstant(2.5)
	if p.ObjectiveConstant() != 2.5 {
		t.Fatal("constant accessor")
	}
	if p.ObjectiveCoef(0) != 0 {
		t.Fatal("fresh coef should be zero")
	}
	v := p.AddVariable(3, "y")
	if p.ObjectiveCoef(v) != 3 || p.NumVariables() != 2 {
		t.Fatal("AddVariable")
	}
}

func TestPanicsOnBadVariableIndex(t *testing.T) {
	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s: expected panic", name)
			}
		}()
		f()
	}
	p := NewProblem(1)
	mustPanic("negative problem", func() { NewProblem(-1) })
	mustPanic("set coef", func() { p.SetObjectiveCoef(3, 1) })
	mustPanic("get coef", func() { p.ObjectiveCoef(-1) })
	mustPanic("constraint var", func() { p.AddConstraint([]Term{{Var: 9, Coef: 1}}, LE, 0) })
	mustPanic("fix negative", func() { p.FixVariable(0, -1) })
	mustPanic("name", func() { p.VariableName(7) })
}

func TestFeasibleEdgeCases(t *testing.T) {
	p := NewProblem(2)
	p.AddConstraint([]Term{{Var: 0, Coef: 1}}, GE, 1)
	p.AddConstraint([]Term{{Var: 1, Coef: 1}}, EQ, 2)
	if p.Feasible([]float64{1}, 1e-9) {
		t.Fatal("short vector should be infeasible")
	}
	if p.Feasible([]float64{-1, 2}, 1e-9) {
		t.Fatal("negative variable should be infeasible")
	}
	if p.Feasible([]float64{0.5, 2}, 1e-9) {
		t.Fatal("GE violation should be infeasible")
	}
	if p.Feasible([]float64{1, 2.5}, 1e-9) {
		t.Fatal("EQ violation should be infeasible")
	}
	if !p.Feasible([]float64{1, 2}, 1e-9) {
		t.Fatal("feasible point rejected")
	}
}

func TestBadSenseStrings(t *testing.T) {
	if !strings.Contains(Sense(9).String(), "Sense") {
		t.Fatal("unknown sense rendering")
	}
	if !strings.Contains(Status(9).String(), "Status") {
		t.Fatal("unknown status rendering")
	}
}

func TestIterationLimit(t *testing.T) {
	// A non-trivial LP with an absurd iteration cap must report IterLimit.
	p := NewProblem(4)
	for i := 0; i < 4; i++ {
		p.SetObjectiveCoef(i, -1)
		p.AddConstraint([]Term{{Var: i, Coef: 1}, {Var: (i + 1) % 4, Coef: 1}}, LE, float64(3+i))
	}
	sol, err := p.SolveCtx(context.Background(), Options{MaxIters: 1})
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != IterLimit {
		t.Fatalf("status = %v, want iteration-limit", sol.Status)
	}
}

func TestLargeCoefficientScaling(t *testing.T) {
	// Badly scaled rows must still solve within tolerance.
	p := NewProblem(2)
	p.SetObjectiveCoef(0, 1e-6)
	p.SetObjectiveCoef(1, 1e6)
	p.AddConstraint([]Term{{Var: 0, Coef: 1e6}, {Var: 1, Coef: 1e-6}}, GE, 2e6)
	sol, err := p.SolveCtx(context.Background(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != Optimal {
		t.Fatalf("status = %v", sol.Status)
	}
	// x0 = 2 is optimal: objective 2e-6.
	if math.Abs(sol.Objective-2e-6) > 1e-9 {
		t.Fatalf("objective = %v", sol.Objective)
	}
}

func TestValueIgnoresExtraEntries(t *testing.T) {
	p := NewProblem(1)
	p.SetObjectiveCoef(0, 2)
	if p.Value([]float64{3, 99}) != 6 {
		t.Fatal("Value read past problem variables")
	}
}
