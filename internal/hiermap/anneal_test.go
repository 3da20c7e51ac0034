package hiermap

import (
	"context"
	"math"
	"math/rand"
	"testing"
	"time"

	"rahtm/internal/graph"
	"rahtm/internal/routing"
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
	shape := []int{2, 2, 2, 2}
	check := func(g *graph.Comm, torus bool, res *Result, err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		if got, want := res.MCL, EvaluateWith(g, shape, torus, res.Mapping, routing.MinimalAdaptive{}); math.Float64bits(got) != math.Float64bits(want) {
			t.Errorf("torus=%v degraded=%v: Result.MCL %.17g, EvaluateWith %.17g", torus, res.Degraded, got, want)
		}
	}
	for _, torus := range []bool{false, true} {
		for seed := int64(1); seed <= 8; seed++ {
			g := randomGraph(16, 40+seed)
			res, err := MapCtx(context.Background(), g, shape, Config{Method: Anneal, Torus: torus, AnnealIters: 2000, AnnealRestarts: 2, Seed: seed})
			check(g, torus, res, err)
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	g := randomGraph(16, 49)
	res, err := MapCtx(ctx, g, shape, Config{Method: Anneal, Torus: true, AnnealIters: 200_000_000, AnnealRestarts: 1})
	check(g, true, res, err)
	if !res.Degraded {
		t.Fatal("Degraded not set")
	}
}
