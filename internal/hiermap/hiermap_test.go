package hiermap

import (
	"context"
	"math"
	"math/rand"
	"testing"
	"time"

	"rahtm/internal/graph"
	"rahtm/internal/lp"
	"rahtm/internal/mcflow"
	"rahtm/internal/routing"
	"rahtm/internal/topology"
)

func ringGraph(n int, w float64) *graph.Comm {
	g := graph.New(n)
	for i := 0; i < n; i++ {
		g.AddTraffic(i, (i+1)%n, w)
	}
	return g.Build()
}

// figure1Graph reproduces the paper's Figure 1 communication graph: a heavy
// pair plus light edges around.
func figure1Graph() *graph.Comm {
	g := graph.New(4)
	g.AddTraffic(0, 1, 10) // the heavy pair
	g.AddTraffic(1, 2, 1)
	g.AddTraffic(2, 3, 1)
	g.AddTraffic(3, 0, 1)
	return g.Build()
}

func diagonalDistance(shape []int, m topology.Mapping, a, b int) int {
	mesh := topology.NewMesh(shape...)
	return mesh.MinDistance(m[a], m[b])
}

func TestExhaustiveFigure1PutsHeavyPairOnDiagonal(t *testing.T) {
	res, err := MapCtx(context.Background(), figure1Graph(), topology.NewMesh(2, 2), Config{Method: Exhaustive})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Proved {
		t.Fatal("exhaustive must prove optimality")
	}
	if d := diagonalDistance([]int{2, 2}, res.Mapping, 0, 1); d != 2 {
		t.Fatalf("heavy pair at distance %d, want 2 (diagonal); mapping %v", d, res.Mapping)
	}
	// Heavy flow splits 5/5; light flows add at most 1 per link.
	if res.MCL > 6+1e-9 {
		t.Fatalf("MCL = %v, want <= 6", res.MCL)
	}
}

func TestMILPFigure1PutsHeavyPairOnDiagonal(t *testing.T) {
	res, err := MapCtx(context.Background(), figure1Graph(), topology.NewMesh(2, 2), Config{Method: MILP, MILPDeadline: time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Proved {
		t.Fatalf("MILP did not prove optimality")
	}
	if d := diagonalDistance([]int{2, 2}, res.Mapping, 0, 1); d != 2 {
		t.Fatalf("heavy pair at distance %d, want 2 (diagonal); mapping %v", d, res.Mapping)
	}
}

func TestMILPObjectiveMatchesLPEvaluator(t *testing.T) {
	// On a mesh, the Table II model and the fixed-mapping minimal-path LP
	// agree: re-evaluating the MILP's mapping with mcflow must reproduce an
	// MCL no worse than any other placement's.
	g := figure1Graph()
	mesh := topology.NewMesh(2, 2)
	res, err := MapCtx(context.Background(), g, mesh, Config{Method: MILP, MILPDeadline: time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	milpEval, _, err := mcflow.EvaluateWithRoutesCtx(context.Background(), mesh, g, res.Mapping, lp.Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Brute force: best optimal-split MCL over all 24 placements.
	best := math.Inf(1)
	perm := []int{0, 1, 2, 3}
	var permute func(k int)
	permute = func(k int) {
		if k == 4 {
			ev, _, err := mcflow.EvaluateWithRoutesCtx(context.Background(), mesh, g, topology.Mapping(perm), lp.Options{})
			if err == nil && ev.MCL < best {
				best = ev.MCL
			}
			return
		}
		for i := k; i < 4; i++ {
			perm[k], perm[i] = perm[i], perm[k]
			permute(k + 1)
			perm[k], perm[i] = perm[i], perm[k]
		}
	}
	permute(0)
	if milpEval.MCL > best+1e-6 {
		t.Fatalf("MILP mapping LP-MCL %v, best possible %v", milpEval.MCL, best)
	}
}

func TestExhaustiveMatchesBruteForceUniformModel(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 10; trial++ {
		b := graph.New(4)
		for e := 0; e < 6; e++ {
			b.AddTraffic(rng.Intn(4), rng.Intn(4), float64(1+rng.Intn(9)))
		}
		g := b.Build()
		res, err := MapCtx(context.Background(), g, topology.NewMesh(2, 2), Config{Method: Exhaustive})
		if err != nil {
			t.Fatal(err)
		}
		mesh := topology.NewMesh(2, 2)
		best := math.Inf(1)
		perm := []int{0, 1, 2, 3}
		var permute func(k int)
		permute = func(k int) {
			if k == 4 {
				mcl := routing.MaxChannelLoad(mesh, g, topology.Mapping(perm), routing.MinimalAdaptive{})
				if mcl < best {
					best = mcl
				}
				return
			}
			for i := k; i < 4; i++ {
				perm[k], perm[i] = perm[i], perm[k]
				permute(k + 1)
				perm[k], perm[i] = perm[i], perm[k]
			}
		}
		permute(0)
		if math.Abs(res.MCL-best) > 1e-9 {
			t.Fatalf("trial %d: exhaustive MCL %v, brute force %v", trial, res.MCL, best)
		}
	}
}

func TestMILPNeverWorseThanExhaustiveUnderLPModel(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	mesh := topology.NewMesh(2, 2)
	for trial := 0; trial < 5; trial++ {
		b := graph.New(4)
		for e := 0; e < 5; e++ {
			b.AddTraffic(rng.Intn(4), rng.Intn(4), float64(1+rng.Intn(5)))
		}
		g := b.Build()
		mRes, err := MapCtx(context.Background(), g, topology.NewMesh(2, 2), Config{Method: MILP, MILPDeadline: time.Minute, Seed: int64(trial)})
		if err != nil {
			t.Fatal(err)
		}
		eRes, err := MapCtx(context.Background(), g, topology.NewMesh(2, 2), Config{Method: Exhaustive})
		if err != nil {
			t.Fatal(err)
		}
		mEval, _, err := mcflow.EvaluateWithRoutesCtx(context.Background(), mesh, g, mRes.Mapping, lp.Options{})
		if err != nil {
			t.Fatal(err)
		}
		eEval, _, err := mcflow.EvaluateWithRoutesCtx(context.Background(), mesh, g, eRes.Mapping, lp.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if mRes.Proved && mEval.MCL > eEval.MCL+1e-6 {
			t.Fatalf("trial %d: proved MILP LP-MCL %v worse than exhaustive %v", trial, mEval.MCL, eEval.MCL)
		}
	}
}

func TestAnnealFindsGoodRingMapping(t *testing.T) {
	g := ringGraph(8, 5)
	aRes, err := MapCtx(context.Background(), g, topology.NewMesh(2, 2, 2), Config{Method: Anneal, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	eRes, err := MapCtx(context.Background(), g, topology.NewMesh(2, 2, 2), Config{Method: Exhaustive})
	if err != nil {
		t.Fatal(err)
	}
	if aRes.MCL < eRes.MCL-1e-9 {
		t.Fatalf("anneal %v beat proven optimum %v", aRes.MCL, eRes.MCL)
	}
	// A ring embeds in the cube with bounded contention; annealing should
	// land within 2x of optimal on this easy instance.
	if aRes.MCL > 2*eRes.MCL+1e-9 {
		t.Fatalf("anneal MCL %v, optimum %v", aRes.MCL, eRes.MCL)
	}
}

func TestAutoSelectsBySize(t *testing.T) {
	res, err := MapCtx(context.Background(), ringGraph(4, 1), topology.NewMesh(2, 2), Config{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Method != Exhaustive {
		t.Fatalf("auto picked %v for 4 nodes, want exhaustive", res.Method)
	}
	res, err = MapCtx(context.Background(), ringGraph(16, 1), topology.NewMesh(2, 2, 2, 2), Config{AnnealIters: 500})
	if err != nil {
		t.Fatal(err)
	}
	if res.Method != Anneal {
		t.Fatalf("auto picked %v for 16 nodes, want anneal", res.Method)
	}
}

func TestTorusDoubleLinksHalveLoad(t *testing.T) {
	// Two clusters exchanging on a 2-cube with torus links: load splits
	// across the double links.
	b := graph.New(2)
	b.AddTraffic(0, 1, 8)
	g := b.Build()
	res, err := MapCtx(context.Background(), g, topology.NewTorus(2, 1), Config{Method: Exhaustive})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.MCL-4) > 1e-9 {
		t.Fatalf("torus MCL = %v, want 4 (double-wide links)", res.MCL)
	}
	res, err = MapCtx(context.Background(), g, topology.NewMesh(2, 1), Config{Method: Exhaustive})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.MCL-8) > 1e-9 {
		t.Fatalf("mesh MCL = %v, want 8", res.MCL)
	}
}

func TestMapValidation(t *testing.T) {
	for _, tc := range []struct {
		name string
		g    *graph.Comm
		cube *topology.Torus
	}{
		{"non-2-ary cube", ringGraph(6, 1), topology.NewMesh(3, 2)},
		{"size mismatch", ringGraph(3, 1), topology.NewMesh(2, 2)},
	} {
		if _, err := MapCtx(context.Background(), tc.g, tc.cube, Config{}); err == nil {
			t.Errorf("%s: %d clusters on %v, want an error", tc.name, tc.g.N(), tc.cube)
		}
	}
}

func TestMethodString(t *testing.T) {
	for m, want := range map[Method]string{
		Auto: "auto", MILP: "milp", Exhaustive: "exhaustive", Anneal: "anneal",
	} {
		if m.String() != want {
			t.Fatalf("Method(%d).String() = %q", m, m.String())
		}
	}
}

func TestEvaluateConsistentWithResult(t *testing.T) {
	g := figure1Graph()
	res, err := MapCtx(context.Background(), g, topology.NewMesh(2, 2), Config{Method: Exhaustive})
	if err != nil {
		t.Fatal(err)
	}
	if ev := routing.MaxChannelLoad(topology.NewMesh(2, 2), g, res.Mapping, routing.MinimalAdaptive{}); math.Abs(ev-res.MCL) > 1e-12 {
		t.Fatalf("MaxChannelLoad = %v, Result.MCL = %v", ev, res.MCL)
	}
}

// Property-style check: the exhaustive mapping is always a permutation.
func TestExhaustiveProducesPermutation(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	for trial := 0; trial < 10; trial++ {
		b := graph.New(8)
		for e := 0; e < 12; e++ {
			b.AddTraffic(rng.Intn(8), rng.Intn(8), float64(1+rng.Intn(4)))
		}
		g := b.Build()
		res, err := MapCtx(context.Background(), g, topology.NewMesh(2, 2, 2), Config{Method: Exhaustive})
		if err != nil {
			t.Fatal(err)
		}
		if err := res.Mapping.Validate(8, true); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
	}
}
