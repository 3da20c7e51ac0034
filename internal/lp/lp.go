// Package lp implements a dense two-phase primal simplex solver for linear
// programs in the form
//
//	minimize    c·x + k
//	subject to  a_i·x {<=,=,>=} b_i   for every constraint row i
//	            x >= 0
//
// The solver is deliberately self-contained (standard library only): the
// RAHTM paper relies on CPLEX for its Table II MILP formulation, and this
// package is the substitute substrate. Problems are built incrementally with
// sparse terms and densified only inside the solver, so model construction
// stays cheap even when many short rows are added.
//
// Upper bounds on variables (needed for the 0/1 variables of the MILP layer)
// are expressed as ordinary <= rows by the caller; fixing a variable is done
// by substitution before solving (see package milp).
package lp

import (
	"context"
	"errors"
	"fmt"
	"math"
	"strings"

	"rahtm/internal/telemetry"
)

// Sense is the relational operator of a constraint row.
type Sense int8

// Constraint senses.
const (
	LE Sense = iota // a·x <= b
	GE              // a·x >= b
	EQ              // a·x == b
)

// String returns the conventional operator spelling.
func (s Sense) String() string {
	switch s {
	case LE:
		return "<="
	case GE:
		return ">="
	case EQ:
		return "=="
	}
	return fmt.Sprintf("Sense(%d)", int8(s))
}

// Status reports the outcome of a solve.
type Status int8

// Solve outcomes.
const (
	Optimal    Status = iota // an optimal basic feasible solution was found
	Infeasible               // no point satisfies all constraints
	Unbounded                // the objective decreases without bound
	IterLimit                // the iteration budget was exhausted
	Canceled                 // the context was canceled mid-solve (SolveCtx)
)

// String implements fmt.Stringer.
func (s Status) String() string {
	switch s {
	case Optimal:
		return "optimal"
	case Infeasible:
		return "infeasible"
	case Unbounded:
		return "unbounded"
	case IterLimit:
		return "iteration-limit"
	case Canceled:
		return "canceled"
	}
	return fmt.Sprintf("Status(%d)", int8(s))
}

// Term is one sparse entry of a constraint or objective row.
type Term struct {
	Var  int     // variable index, 0-based
	Coef float64 // coefficient
}

// row is one stored constraint.
type row struct {
	terms []Term
	sense Sense
	rhs   float64
}

// Problem is a mutable linear program. The zero value is an empty problem;
// add variables before referencing them in rows.
type Problem struct {
	n        int       // number of variables
	obj      []float64 // dense objective, len n
	constant float64   // objective constant k
	rows     []row
	names    []string // optional variable names, len n ("" when unset)
}

// NewProblem returns an empty problem with n variables (all with zero
// objective coefficient).
func NewProblem(n int) *Problem {
	if n < 0 {
		panic("lp: negative variable count")
	}
	return &Problem{
		n:     n,
		obj:   make([]float64, n),
		names: make([]string, n),
	}
}

// AddVariable appends one variable with the given objective coefficient and
// returns its index. The name is used only in diagnostics and may be empty.
func (p *Problem) AddVariable(objCoef float64, name string) int {
	p.obj = append(p.obj, objCoef)
	p.names = append(p.names, name)
	p.n++
	return p.n - 1
}

// NumVariables returns the current variable count.
func (p *Problem) NumVariables() int { return p.n }

// NumConstraints returns the current constraint count.
func (p *Problem) NumConstraints() int { return len(p.rows) }

// SetObjectiveCoef sets the objective coefficient of variable v.
func (p *Problem) SetObjectiveCoef(v int, c float64) {
	p.checkVar(v)
	p.obj[v] = c
}

// ObjectiveCoef returns the objective coefficient of variable v.
func (p *Problem) ObjectiveCoef(v int) float64 {
	p.checkVar(v)
	return p.obj[v]
}

// AddObjectiveConstant adds k to the objective's constant term.
func (p *Problem) AddObjectiveConstant(k float64) { p.constant += k }

// ObjectiveConstant returns the objective's constant term.
func (p *Problem) ObjectiveConstant() float64 { return p.constant }

// AddConstraint appends the row (terms) sense rhs and returns its index.
// Terms referencing the same variable are summed. The terms slice is copied.
func (p *Problem) AddConstraint(terms []Term, sense Sense, rhs float64) int {
	for _, t := range terms {
		p.checkVar(t.Var)
	}
	cp := make([]Term, len(terms))
	copy(cp, terms)
	p.rows = append(p.rows, row{terms: cp, sense: sense, rhs: rhs})
	return len(p.rows) - 1
}

// VariableName returns the name given to v, or "x<v>" when unnamed.
func (p *Problem) VariableName(v int) string {
	p.checkVar(v)
	if p.names[v] != "" {
		return p.names[v]
	}
	return fmt.Sprintf("x%d", v)
}

func (p *Problem) checkVar(v int) {
	if v < 0 || v >= p.n {
		panic(fmt.Sprintf("lp: variable index %d out of range [0,%d)", v, p.n))
	}
}

// Clone returns a deep copy of the problem.
func (p *Problem) Clone() *Problem {
	q := &Problem{
		n:        p.n,
		obj:      append([]float64(nil), p.obj...),
		constant: p.constant,
		names:    append([]string(nil), p.names...),
		rows:     make([]row, len(p.rows)),
	}
	for i, r := range p.rows {
		q.rows[i] = row{
			terms: append([]Term(nil), r.terms...),
			sense: r.sense,
			rhs:   r.rhs,
		}
	}
	return q
}

// FixVariable substitutes x[v] = value into every row and the objective, and
// removes the variable's column by zeroing it out. The variable itself keeps
// its index (so solution vectors stay aligned); a pinned EQ row forces it to
// the value so that reported solutions carry it. value must be >= 0 because
// the solver assumes non-negative variables.
func (p *Problem) FixVariable(v int, value float64) {
	p.checkVar(v)
	if value < 0 {
		panic("lp: FixVariable with negative value")
	}
	p.AddConstraint([]Term{{Var: v, Coef: 1}}, EQ, value)
}

// Solution is the result of solving a problem.
type Solution struct {
	Status    Status
	X         []float64 // primal values, len = NumVariables at solve time
	Objective float64   // c·x + k (meaningful when Status == Optimal)
	Iters     int       // simplex iterations across both phases
}

// Options tunes the solver. The zero value picks sensible defaults.
type Options struct {
	// MaxIters bounds total simplex pivots; <= 0 selects a default scaled
	// to the problem size.
	MaxIters int
	// Tol is the feasibility/optimality tolerance; <= 0 selects 1e-9.
	Tol float64

	// scope, when non-nil, receives the solve/pivot counters instead of
	// the process-wide registry. SolveCtx fills it from the context; the
	// field is unexported so callers cannot desynchronize it from ctx.
	scope *telemetry.Scope
}

// ErrBadProblem is returned for structurally invalid problems.
var ErrBadProblem = errors.New("lp: invalid problem")

// SolveCtx minimizes the problem under a context: the pivot loop polls
// ctx periodically and aborts with ctx.Err() when it is done. On
// cancellation the returned Solution has Status Canceled and the error is
// non-nil.
func (p *Problem) SolveCtx(ctx context.Context, opt Options) (*Solution, error) {
	opt.scope = telemetry.ScopeFrom(ctx)
	sol, err := solveSimplex(p, opt, ctx.Done())
	if err != nil {
		return sol, err
	}
	if sol.Status == Canceled {
		return sol, ctx.Err()
	}
	return sol, nil
}

// String renders the model in a small human-readable form (for debugging and
// test failure messages; not a stable serialization).
func (p *Problem) String() string {
	var b strings.Builder
	b.WriteString("min ")
	first := true
	for j, c := range p.obj {
		if c == 0 {
			continue
		}
		if !first {
			b.WriteString(" + ")
		}
		fmt.Fprintf(&b, "%g*%s", c, p.VariableName(j))
		first = false
	}
	if p.constant != 0 || first {
		if !first {
			b.WriteString(" + ")
		}
		fmt.Fprintf(&b, "%g", p.constant)
	}
	b.WriteString("\n")
	for _, r := range p.rows {
		for i, t := range r.terms {
			if i > 0 {
				b.WriteString(" + ")
			}
			fmt.Fprintf(&b, "%g*%s", t.Coef, p.VariableName(t.Var))
		}
		fmt.Fprintf(&b, " %s %g\n", r.sense, r.rhs)
	}
	return b.String()
}

// Value evaluates the objective at x (including the constant term).
func (p *Problem) Value(x []float64) float64 {
	v := p.constant
	for j := 0; j < p.n && j < len(x); j++ {
		v += p.obj[j] * x[j]
	}
	return v
}

// Feasible reports whether x satisfies every constraint and x >= -tol,
// within tolerance tol.
func (p *Problem) Feasible(x []float64, tol float64) bool {
	if len(x) < p.n {
		return false
	}
	for j := 0; j < p.n; j++ {
		if x[j] < -tol {
			return false
		}
	}
	for _, r := range p.rows {
		lhs := 0.0
		for _, t := range r.terms {
			lhs += t.Coef * x[t.Var]
		}
		// Scale the tolerance with the row magnitude so large-coefficient
		// rows are not spuriously rejected.
		scale := math.Abs(r.rhs)
		for _, t := range r.terms {
			if a := math.Abs(t.Coef * x[t.Var]); a > scale {
				scale = a
			}
		}
		rtol := tol * (1 + scale)
		switch r.sense {
		case LE:
			if lhs > r.rhs+rtol {
				return false
			}
		case GE:
			if lhs < r.rhs-rtol {
				return false
			}
		case EQ:
			if math.Abs(lhs-r.rhs) > rtol {
				return false
			}
		}
	}
	return true
}
