package hiermap

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"testing"
	"time"

	"rahtm/internal/graph"
	"rahtm/internal/routing"
	"rahtm/internal/telemetry"
	"rahtm/internal/topology"
)

// TestIncEvalMatchesFullEvaluation drives the incremental evaluator with
// random swaps and cross-checks the load vector against a from-scratch
// computation after every step.
func TestIncEvalMatchesFullEvaluation(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for trial := 0; trial < 5; trial++ {
		cube := topology.NewMesh(2, 2, 2)
		b := graph.New(8)
		for e := 0; e < 20; e++ {
			b.AddTraffic(rng.Intn(8), rng.Intn(8), float64(1+rng.Intn(9)))
		}
		g := b.Build()
		ev := newIncEval(g, cube, topology.Mapping(rng.Perm(8)), routing.MinimalAdaptive{}.Table(cube))
		for step := 0; step < 200; step++ {
			i, j := rng.Intn(8), rng.Intn(8)
			if i == j {
				continue
			}
			got := ev.swap(i, j)
			want := routing.MaxChannelLoad(cube, g, ev.cur, routing.MinimalAdaptive{})
			if math.Abs(got-want) > 1e-6 {
				t.Fatalf("trial %d step %d: incremental MCL %v, full %v", trial, step, got, want)
			}
			fresh := routing.ChannelLoads(cube, g, ev.cur, routing.MinimalAdaptive{})
			for ch := range fresh {
				if math.Abs(fresh[ch]-ev.loads[ch]) > 1e-6 {
					t.Fatalf("trial %d step %d: channel %d drifted: %v vs %v",
						trial, step, ch, ev.loads[ch], fresh[ch])
				}
			}
		}
	}
}

// TestIncEvalSwapUndo verifies that swapping the same pair twice restores
// the loads exactly enough.
func TestIncEvalSwapUndo(t *testing.T) {
	cube := topology.NewMesh(2, 2)
	b := graph.New(4)
	b.AddTraffic(0, 1, 5)
	b.AddTraffic(2, 3, 2)
	b.AddTraffic(0, 3, 1)
	g := b.Build()
	ev := newIncEval(g, cube, topology.Identity(4), routing.MinimalAdaptive{}.Table(cube))
	before := append([]float64(nil), ev.loads...)
	ev.swap(0, 3)
	ev.swap(0, 3)
	for ch := range before {
		if math.Abs(before[ch]-ev.loads[ch]) > 1e-9 {
			t.Fatalf("channel %d not restored: %v vs %v", ch, before[ch], ev.loads[ch])
		}
	}
}

// TestIncEvalPeriodicRebuild forces the rebuild path.
func TestIncEvalPeriodicRebuild(t *testing.T) {
	cube := topology.NewMesh(2, 2)
	b := graph.New(4)
	b.AddTraffic(0, 1, 3)
	g := b.Build()
	ev := newIncEval(g, cube, topology.Identity(4), routing.MinimalAdaptive{}.Table(cube))
	for k := 0; k < 9000; k++ {
		ev.swap(0, 1)
	}
	want := routing.MaxChannelLoad(cube, g, ev.cur, routing.MinimalAdaptive{})
	if math.Abs(ev.mcl()-want) > 1e-9 {
		t.Fatalf("after rebuild: %v vs %v", ev.mcl(), want)
	}
}

// TestNegativeVolumeSubtracts locks the signed-AddLoads contract the
// incremental evaluator depends on.
func TestNegativeVolumeSubtracts(t *testing.T) {
	cube := topology.NewTorus(4, 4)
	loads := make([]float64, cube.NumChannels())
	alg := routing.MinimalAdaptive{}
	alg.AddLoads(cube, 1, 14, 7, loads)
	alg.AddLoads(cube, 1, 14, -7, loads)
	for ch, v := range loads {
		if math.Abs(v) > 1e-12 {
			t.Fatalf("channel %d residual %v", ch, v)
		}
	}
}

func BenchmarkAnnealStepIncremental(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	cube := topology.NewMesh(2, 2, 2, 2, 2)
	gb := graph.New(32)
	for e := 0; e < 200; e++ {
		gb.AddTraffic(rng.Intn(32), rng.Intn(32), float64(1+rng.Intn(9)))
	}
	g := gb.Build()
	ev := newIncEval(g, cube, topology.Identity(32), routing.MinimalAdaptive{}.Table(cube))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ev.swap(rng.Intn(32), rng.Intn(32))
	}
}

func BenchmarkAnnealStepFull(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	cube := topology.NewMesh(2, 2, 2, 2, 2)
	gb := graph.New(32)
	for e := 0; e < 200; e++ {
		gb.AddTraffic(rng.Intn(32), rng.Intn(32), float64(1+rng.Intn(9)))
	}
	g := gb.Build()
	m := topology.Identity(32)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		j, k := rng.Intn(32), rng.Intn(32)
		m[j], m[k] = m[k], m[j]
		_ = routing.MaxChannelLoad(cube, g, m, routing.MinimalAdaptive{})
	}
}

// TestAnnealMCLIsEvaluated checks that an annealed Result.MCL is the MCL
// of the returned mapping bit for bit, not the value the incremental
// evaluator drifted to over thousands of signed updates; the last solve
// runs into its deadline and returns degraded.
func TestAnnealMCLIsEvaluated(t *testing.T) {
	mesh, torus := topology.NewMesh(2, 2, 2, 2), topology.NewTorus(2, 2, 2, 2)
	check := func(g *graph.Comm, cube *topology.Torus, res *Result, err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		if got, want := res.MCL, routing.MaxChannelLoad(cube, g, res.Mapping, routing.MinimalAdaptive{}); math.Float64bits(got) != math.Float64bits(want) {
			t.Errorf("cube %v degraded=%v: Result.MCL %.17g, MaxChannelLoad %.17g", cube, res.Degraded, got, want)
		}
	}
	for _, cube := range []*topology.Torus{mesh, torus} {
		for seed := int64(1); seed <= 8; seed++ {
			g := randomGraph(16, 40+seed)
			res, err := MapCtx(context.Background(), g, cube, Config{Method: Anneal, AnnealIters: 2000, AnnealRestarts: 2, Seed: seed})
			check(g, cube, res, err)
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	g := randomGraph(16, 49)
	res, err := MapCtx(ctx, g, torus, Config{Method: Anneal, AnnealIters: 200_000_000, AnnealRestarts: 1})
	check(g, torus, res, err)
	if !res.Degraded {
		t.Fatal("Degraded not set")
	}
}

// TestGraySeeds checks the seed set: 2^(b-1) distinct permutations of the
// 2^b clusters, the identity first.
func TestGraySeeds(t *testing.T) {
	for b := 0; b <= 6; b++ {
		n := 1 << b
		seeds := graySeeds(n)
		if want := max(n/2, 1); len(seeds) != want {
			t.Fatalf("n=%d: %d seeds, want %d", n, len(seeds), want)
		}
		seen := map[string]bool{}
		for s, m := range seeds {
			if err := m.Validate(n, true); err != nil {
				t.Fatalf("n=%d seed %d: %v", n, s, err)
			}
			key := fmt.Sprint(m)
			if seen[key] {
				t.Fatalf("n=%d seed %d repeats %v", n, s, m)
			}
			seen[key] = true
		}
		for x, p := range seeds[0] {
			if x != p {
				t.Fatalf("n=%d: first seed %v is not the identity", n, seeds[0])
			}
		}
	}
}

// haloLeaf is the 4k rung's leaf graph: a rows x cols mesh of tiles, in
// row-major order, sending vol to each grid neighbour.
func haloLeaf(rows, cols int, vol float64) *graph.Comm {
	b := graph.New(rows * cols)
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			v := r*cols + c
			if c+1 < cols {
				b.AddTraffic(v, v+1, vol)
				b.AddTraffic(v+1, v, vol)
			}
			if r+1 < rows {
				b.AddTraffic(v, v+cols, vol)
				b.AddTraffic(v+cols, v, vol)
			}
		}
	}
	return b.Build()
}

// TestHaloLeafStopsAtBound checks the 4x4 halo leaf on the 4-cube: a Gray
// seed puts every grid edge on its own channel, MCL 4 = 16/4, the per-node
// bound, so the annealer returns it proved without a single move.
func TestHaloLeafStopsAtBound(t *testing.T) {
	g := haloLeaf(4, 4, 4)
	cube := topology.NewMesh(2, 2, 2, 2)
	if b := routing.NodeBound(cube, g); b != 4 {
		t.Fatalf("NodeBound %v, want 4", b)
	}
	scope := telemetry.NewScope("halo-leaf")
	res, err := MapCtx(telemetry.WithScope(context.Background(), scope), g, cube, Config{Method: Anneal})
	if err != nil {
		t.Fatal(err)
	}
	if res.MCL != 4 || !res.Proved || res.Degraded {
		t.Fatalf("MCL %v, Proved %v, Degraded %v; want 4, true, false", res.MCL, res.Proved, res.Degraded)
	}
	if moves := scope.Counter(telemetry.CtrAnnealMoves).Value(); moves != 0 {
		t.Fatalf("%d anneal moves, want 0", moves)
	}
	if got := routing.MaxChannelLoad(cube, g, res.Mapping, routing.MinimalAdaptive{}); got != res.MCL {
		t.Fatalf("Result.MCL %v, evaluated %v", res.MCL, got)
	}
}

// TestExpiredAnnealKeepsBestSeed checks that an anneal stopped before its
// first move returns the best Gray seed, degraded: on a random 16-node
// graph, whose seeds are all above the bound.
func TestExpiredAnnealKeepsBestSeed(t *testing.T) {
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	g := randomGraph(16, 11)
	cube := topology.NewMesh(2, 2, 2, 2)
	best := math.Inf(1)
	for _, m := range graySeeds(16) {
		best = math.Min(best, routing.MaxChannelLoad(cube, g, m, routing.MinimalAdaptive{}))
	}
	if bound := routing.NodeBound(cube, g); best <= bound {
		t.Fatalf("best seed %v at the bound %v: the fixture must anneal", best, bound)
	}
	res, err := MapCtx(ctx, g, cube, Config{Method: Anneal})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Degraded || res.Proved || res.MCL != best {
		t.Fatalf("MCL %v, Degraded %v, Proved %v; want the best seed's %v, degraded", res.MCL, res.Degraded, res.Proved, best)
	}
}
