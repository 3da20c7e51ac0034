package lp

import (
	"context"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// bruteForceLP solves min c·x s.t. Ax <= b, x >= 0 by enumerating all basic
// solutions (intersections of n hyperplanes drawn from the m rows plus the n
// non-negativity bounds). It assumes b >= 0 (so x = 0 is feasible) and
// c >= 0 (so the problem is bounded). Exponential, for tiny oracles only.
func bruteForceLP(c []float64, a [][]float64, b []float64) float64 {
	n := len(c)
	m := len(a)
	// Build the combined system: rows 0..m-1 are a_i·x = b_i, rows m..m+n-1
	// are x_j = 0.
	total := m + n
	best := 0.0 // x = 0 is feasible with objective 0
	idx := make([]int, n)
	var rec func(start, k int)
	rec = func(start, k int) {
		if k == n {
			x := solveSquare(idx, c, a, b, n, m)
			if x == nil {
				return
			}
			// Feasibility.
			for j := 0; j < n; j++ {
				if x[j] < -1e-7 {
					return
				}
			}
			for i := 0; i < m; i++ {
				lhs := 0.0
				for j := 0; j < n; j++ {
					lhs += a[i][j] * x[j]
				}
				if lhs > b[i]+1e-7 {
					return
				}
			}
			obj := 0.0
			for j := 0; j < n; j++ {
				obj += c[j] * x[j]
			}
			if obj < best {
				best = obj
			}
			return
		}
		for i := start; i < total; i++ {
			idx[k] = i
			rec(i+1, k+1)
		}
	}
	rec(0, 0)
	return best
}

// solveSquare solves the n×n system selected by idx via Gaussian elimination
// with partial pivoting; returns nil when singular.
func solveSquare(idx []int, c []float64, a [][]float64, b []float64, n, m int) []float64 {
	mat := make([][]float64, n)
	for r, sel := range idx {
		row := make([]float64, n+1)
		if sel < m {
			copy(row, a[sel])
			row[n] = b[sel]
		} else {
			row[sel-m] = 1
			row[n] = 0
		}
		mat[r] = row
	}
	for col := 0; col < n; col++ {
		piv := col
		for r := col + 1; r < n; r++ {
			if math.Abs(mat[r][col]) > math.Abs(mat[piv][col]) {
				piv = r
			}
		}
		if math.Abs(mat[piv][col]) < 1e-10 {
			return nil
		}
		mat[col], mat[piv] = mat[piv], mat[col]
		for r := 0; r < n; r++ {
			if r == col {
				continue
			}
			f := mat[r][col] / mat[col][col]
			if f == 0 {
				continue
			}
			for j := col; j <= n; j++ {
				mat[r][j] -= f * mat[col][j]
			}
		}
	}
	x := make([]float64, n)
	for j := 0; j < n; j++ {
		x[j] = mat[j][n] / mat[j][j]
	}
	return x
}

// TestSimplexAgainstVertexOracle cross-checks the simplex solver against
// exhaustive vertex enumeration on random small bounded-feasible LPs.
func TestSimplexAgainstVertexOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 300; trial++ {
		n := 1 + rng.Intn(4)
		m := 1 + rng.Intn(4)
		c := make([]float64, n)
		for j := range c {
			// Mostly non-negative; occasional zero for degeneracy.
			c[j] = float64(rng.Intn(10))
		}
		a := make([][]float64, m)
		b := make([]float64, m)
		for i := range a {
			a[i] = make([]float64, n)
			for j := range a[i] {
				a[i][j] = float64(rng.Intn(11) - 5)
			}
			b[i] = float64(rng.Intn(10))
		}
		// Flip some c entries negative but add a box x <= 10 per variable so
		// the LP stays bounded and the oracle applies after augmenting rows.
		neg := rng.Intn(2) == 1
		if neg {
			for j := range c {
				if rng.Intn(2) == 0 {
					c[j] = -c[j]
				}
			}
			for j := 0; j < n; j++ {
				row := make([]float64, n)
				row[j] = 1
				a = append(a, row)
				b = append(b, 10)
			}
			m = len(a)
		}

		want := bruteForceLP(c, a, b)

		p := NewProblem(n)
		for j := 0; j < n; j++ {
			p.SetObjectiveCoef(j, c[j])
		}
		for i := 0; i < m; i++ {
			var terms []Term
			for j := 0; j < n; j++ {
				if a[i][j] != 0 {
					terms = append(terms, Term{j, a[i][j]})
				}
			}
			p.AddConstraint(terms, LE, b[i])
		}
		sol, err := p.SolveCtx(context.Background(), Options{})
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if sol.Status != Optimal {
			t.Fatalf("trial %d: status %v, want optimal\n%s", trial, sol.Status, p)
		}
		if !p.Feasible(sol.X, 1e-6) {
			t.Fatalf("trial %d: infeasible solution %v\n%s", trial, sol.X, p)
		}
		if math.Abs(sol.Objective-want) > 1e-6*(1+math.Abs(want)) {
			t.Fatalf("trial %d: obj %v, oracle %v\n%s", trial, sol.Objective, want, p)
		}
	}
}

// Property: for any feasible LP built this way, the simplex solution is never
// worse than any random feasible point we can sample.
func TestQuickSimplexDominatesRandomFeasiblePoints(t *testing.T) {
	cfg := &quick.Config{MaxCount: 120, Rand: rand.New(rand.NewSource(7))}
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(4)
		m := 1 + rng.Intn(3)
		p := NewProblem(n)
		for j := 0; j < n; j++ {
			p.SetObjectiveCoef(j, float64(rng.Intn(9)))
		}
		a := make([][]float64, m)
		b := make([]float64, m)
		for i := 0; i < m; i++ {
			a[i] = make([]float64, n)
			var terms []Term
			for j := 0; j < n; j++ {
				a[i][j] = float64(rng.Intn(7) - 3)
				if a[i][j] != 0 {
					terms = append(terms, Term{j, a[i][j]})
				}
			}
			b[i] = float64(1 + rng.Intn(9))
			p.AddConstraint(terms, LE, b[i])
		}
		sol, err := p.SolveCtx(context.Background(), Options{})
		if err != nil || sol.Status != Optimal {
			return false
		}
		// Sample random feasible points by scaling random rays until feasible.
		for s := 0; s < 30; s++ {
			x := make([]float64, n)
			for j := range x {
				x[j] = rng.Float64() * 3
			}
			for scale := 1.0; scale > 1e-4; scale /= 2 {
				y := make([]float64, n)
				for j := range y {
					y[j] = x[j] * scale
				}
				if p.Feasible(y, 1e-9) {
					if p.Value(y) < sol.Objective-1e-6 {
						return false
					}
					break
				}
			}
		}
		return true
	}
	if err := quick.Check(prop, cfg); err != nil {
		t.Fatal(err)
	}
}
