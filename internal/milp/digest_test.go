package milp

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"math"
	"math/rand"
	"testing"

	"rahtm/internal/lp"
)

// randomBinaryMILP builds a random binary MILP with n variables and m LE
// rows; coefficients are small integers so ties and degenerate relaxations
// are common (the hard cases for search determinism).
func randomBinaryMILP(rng *rand.Rand, n, m int) *Problem {
	base := lp.NewProblem(0)
	p := NewProblem(base)
	vars := make([]int, n)
	for j := 0; j < n; j++ {
		vars[j] = p.AddBinary(float64(rng.Intn(21)-10), "")
	}
	for i := 0; i < m; i++ {
		var terms []lp.Term
		for j := 0; j < n; j++ {
			if a := rng.Intn(9) - 2; a != 0 {
				terms = append(terms, lp.Term{Var: vars[j], Coef: float64(a)})
			}
		}
		if len(terms) > 0 {
			base.AddConstraint(terms, lp.LE, float64(rng.Intn(12)))
		}
	}
	return p
}

// hashResult feeds every Result field into h: status, the bits of the
// objective, the bound and X, and the node and iteration counts.
func hashResult(h hash.Hash, r *Result) {
	var buf [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	put(uint64(r.Status))
	put(math.Float64bits(r.Objective))
	put(math.Float64bits(r.Bound))
	put(uint64(r.Nodes))
	put(uint64(r.LPIters))
	if r.X == nil {
		put(math.MaxUint64)
	} else {
		put(uint64(len(r.X)))
	}
	for _, x := range r.X {
		put(math.Float64bits(x))
	}
}

// searchDigest is the SHA-256 of every Result field over 40 random binary
// MILPs (optimal and infeasible instances both), 10 node-budget cut-offs
// (Feasible-not-Optimal results) and a general-integer model that branches
// several levels deep.
const searchDigest = "c77accf35f88cacd9283d3ab38c569bed378b3fa28ac9b1d8454eeb15d044601"

// TestSearchDigest pins the branch-and-bound trajectory bit for bit: any
// change to node order, pruning, incumbent updates or iteration accounting
// changes the digest.
func TestSearchDigest(t *testing.T) {
	h := sha256.New()
	rng := rand.New(rand.NewSource(41))
	for trial := 0; trial < 40; trial++ {
		n := 3 + rng.Intn(6)
		m := 1 + rng.Intn(4)
		seed := rng.Int63()
		hashResult(h, randomBinaryMILP(rand.New(rand.NewSource(seed)), n, m).Solve(Options{}))
	}
	rng = rand.New(rand.NewSource(17))
	for trial := 0; trial < 10; trial++ {
		seed := rng.Int63()
		hashResult(h, randomBinaryMILP(rand.New(rand.NewSource(seed)), 7, 3).Solve(Options{MaxNodes: 5}))
	}
	// minimize -3x - 2y s.t. 2x + y <= 11, x + 3y <= 12, x,y integer >= 0.
	base := lp.NewProblem(0)
	p := NewProblem(base)
	x := base.AddVariable(-3, "x")
	y := base.AddVariable(-2, "y")
	base.AddConstraint([]lp.Term{{Var: x, Coef: 2}, {Var: y, Coef: 1}}, lp.LE, 11)
	base.AddConstraint([]lp.Term{{Var: x, Coef: 1}, {Var: y, Coef: 3}}, lp.LE, 12)
	p.MarkInteger(x)
	p.MarkInteger(y)
	res := p.Solve(Options{})
	wantStatus(t, res, Optimal)
	hashResult(h, res)
	if got := hex.EncodeToString(h.Sum(nil)); got != searchDigest {
		t.Fatalf("search digest %s, want %s", got, searchDigest)
	}
}
