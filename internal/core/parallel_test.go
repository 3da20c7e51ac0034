package core

import (
	"context"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"testing"

	"rahtm/internal/graph"
	"rahtm/internal/topology"
)

// halo3D builds a periodic 3-D nearest-neighbor exchange on x*y*z tasks.
func halo3D(x, y, z int, w float64) *graph.Comm {
	g := graph.New(x * y * z)
	id := func(i, j, k int) int { return (i*y+j)*z + k }
	for i := 0; i < x; i++ {
		for j := 0; j < y; j++ {
			for k := 0; k < z; k++ {
				g.AddTraffic(id(i, j, k), id((i+1)%x, j, k), w)
				g.AddTraffic(id((i+1)%x, j, k), id(i, j, k), w)
				g.AddTraffic(id(i, j, k), id(i, (j+1)%y, k), w)
				g.AddTraffic(id(i, (j+1)%y, k), id(i, j, k), w)
				g.AddTraffic(id(i, j, k), id(i, j, (k+1)%z), w)
				g.AddTraffic(id(i, j, (k+1)%z), id(i, j, k), w)
			}
		}
	}
	return g.Build()
}

// randomComm builds a seeded sparse random traffic pattern. Unlike the halo
// workloads it has no structural symmetry, so sibling subproblems hash to
// distinct groups and the scheduler actually runs several solves per level.
func randomComm(n, edges int, seed int64) *graph.Comm {
	g := graph.New(n)
	rng := rand.New(rand.NewSource(seed))
	for e := 0; e < edges; e++ {
		a, b := rng.Intn(n), rng.Intn(n)
		if a == b {
			continue
		}
		g.AddTraffic(a, b, 1+9*rng.Float64())
	}
	return g.Build()
}

// runPair runs the same workload sequentially and with 8 workers and fails
// the test unless the results are byte-identical.
func runPair(t *testing.T, g *graph.Comm, tp *topology.Torus, cfg Config) (*Result, *Result) {
	t.Helper()
	seqCfg := cfg
	seqCfg.Parallelism = 1
	parCfg := cfg
	parCfg.Parallelism = 8

	seq, err := MapProcessesCtx(context.Background(), g, tp, seqCfg)
	if err != nil {
		t.Fatalf("sequential run: %v", err)
	}
	par, err := MapProcessesCtx(context.Background(), g, tp, parCfg)
	if err != nil {
		t.Fatalf("parallel run: %v", err)
	}

	if !reflect.DeepEqual(seq.NodeMapping, par.NodeMapping) {
		t.Errorf("node mappings differ:\n seq: %v\n par: %v", seq.NodeMapping, par.NodeMapping)
	}
	if !reflect.DeepEqual(seq.ProcToNode, par.ProcToNode) {
		t.Errorf("process mappings differ:\n seq: %v\n par: %v", seq.ProcToNode, par.ProcToNode)
	}
	if seq.MCL != par.MCL {
		t.Errorf("MCL differs: seq %v par %v", seq.MCL, par.MCL)
	}
	if math.IsNaN(seq.MCL) || seq.MCL <= 0 {
		t.Errorf("suspicious MCL %v", seq.MCL)
	}

	// Work accounting must match too: the parallel scheduler solves the same
	// representatives and reuses the same siblings as the sequential cache.
	type counts struct {
		sub, subHit, merges, mergesHit int
		fallback, degraded             bool
	}
	sc := counts{seq.Stats.Subproblems, seq.Stats.SubproblemsHit, seq.Stats.Merges, seq.Stats.MergesHit, seq.Stats.DefaultFallback, seq.Stats.Degraded}
	pc := counts{par.Stats.Subproblems, par.Stats.SubproblemsHit, par.Stats.Merges, par.Stats.MergesHit, par.Stats.DefaultFallback, par.Stats.Degraded}
	if sc != pc {
		t.Errorf("stats differ: seq %+v par %+v", sc, pc)
	}

	if seq.Stats.Parallelism != 1 {
		t.Errorf("sequential Stats.Parallelism = %d, want 1", seq.Stats.Parallelism)
	}
	if par.Stats.Parallelism != 8 {
		t.Errorf("parallel Stats.Parallelism = %d, want 8", par.Stats.Parallelism)
	}
	return seq, par
}

func TestParallelMatchesSequentialHalo(t *testing.T) {
	tp := topology.NewTorus(4, 4, 4)
	g := halo3D(4, 4, 4, 10)
	cfg := Config{GridDims: []int{4, 4, 4}}
	cfg.Leaf.Seed = 42
	seq, _ := runPair(t, g, tp, cfg)
	if seq.Stats.Subproblems == 0 || seq.Stats.Merges == 0 {
		t.Fatalf("phases did not run: %+v", seq.Stats)
	}
	// The symmetric halo must exercise the sibling-reuse fan-out path.
	if seq.Stats.SubproblemsHit == 0 {
		t.Errorf("expected sibling-reuse hits on a symmetric halo, got %+v", seq.Stats)
	}
}

func TestParallelMatchesSequentialRandom(t *testing.T) {
	// An asymmetric workload: sibling groups are mostly singletons, so the
	// worker pool genuinely runs several distinct solves per level.
	tp := topology.NewTorus(4, 4, 2)
	g := randomComm(32, 160, 7)
	cfg := Config{}
	cfg.Leaf.Seed = 99
	runPair(t, g, tp, cfg)
}

func TestParallelMatchesSequentialNoReuse(t *testing.T) {
	// With sibling reuse disabled every sibling is its own group; the
	// parallel scheduler must still commit results in sibling index order.
	tp := topology.NewTorus(4, 4)
	g := halo2D(4, 4, 10)
	cfg := Config{GridDims: []int{4, 4}, DisableSiblingReuse: true}
	cfg.Leaf.Seed = 42
	seq, _ := runPair(t, g, tp, cfg)
	if seq.Stats.SubproblemsHit != 0 || seq.Stats.MergesHit != 0 {
		t.Errorf("reuse hits recorded despite DisableSiblingReuse: %+v", seq.Stats)
	}
}

func TestParallelWorkerCountResolution(t *testing.T) {
	if got := workerCount(1); got != 1 {
		t.Errorf("workerCount(1) = %d", got)
	}
	if got := workerCount(-3); got != 1 {
		t.Errorf("workerCount(-3) = %d", got)
	}
	if got := workerCount(6); got != 6 {
		t.Errorf("workerCount(6) = %d", got)
	}
	if got := workerCount(0); got != runtime.GOMAXPROCS(0) {
		t.Errorf("workerCount(0) = %d, want GOMAXPROCS %d", got, runtime.GOMAXPROCS(0))
	}
	if got := innerParallelism(8, 2); got != 4 {
		t.Errorf("innerParallelism(8,2) = %d", got)
	}
	if got := innerParallelism(4, 9); got != 1 {
		t.Errorf("innerParallelism(4,9) = %d", got)
	}
	if got := innerParallelism(8, 1); got != 8 {
		t.Errorf("innerParallelism(8,1) = %d", got)
	}
}
