package routing

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"

	"rahtm/internal/graph"
	"rahtm/internal/topology"
)

// randomGraph builds a dense-ish random traffic pattern over n vertices.
func randomGraph(n int, seed int64) *graph.Comm {
	rng := rand.New(rand.NewSource(seed))
	g := graph.New(n)
	for s := 0; s < n; s++ {
		for k := 0; k < 6; k++ {
			d := rng.Intn(n)
			if d != s {
				g.AddTraffic(s, d, 1+rng.Float64()*9)
			}
		}
	}
	return g
}

// directDP is the reference evaluator the stencil cache is checked
// against: it makes AddLoads' routing decisions but routes every direction
// box through the proportional-split DP (addMinimalBoxLoads or
// addMinimalBoxLoadsDelta), never through a stencil.
type directDP struct{}

func (directDP) Name() string { return "minimal-adaptive-direct" }

func (directDP) AddLoads(t *topology.Torus, src, dst int, vol float64, loads []float64) {
	directBoxes(t, src, dst, vol, func(cs, dirs, dists []int, vol float64, sc *scratch) {
		addMinimalBoxLoads(t, cs, dirs, dists, vol, loads, sc)
	})
}

func (directDP) AddLoadsDelta(t *topology.Torus, src, dst int, vol float64, dv *DeltaVec) {
	directBoxes(t, src, dst, vol, func(cs, dirs, dists []int, vol float64, sc *scratch) {
		addMinimalBoxLoadsDelta(t, cs, dirs, dists, vol, dv, sc)
	})
}

// directBoxes enumerates the minimal direction combinations of one flow
// exactly as AddLoads does and hands each box to route.
func directBoxes(t *topology.Torus, src, dst int, vol float64, route func(cs, dirs, dists []int, vol float64, sc *scratch)) {
	if src == dst || vol == 0 {
		return
	}
	sc := getScratch(t.NumDims())
	defer putScratch(sc)
	cs := t.CoordOf(src, sc.cs)
	cd := t.CoordOf(dst, sc.cd)
	numCombos := prepareDirs(t, cs, cd, sc)
	comboVol := vol / float64(numCombos)
	for mask := 0; mask < numCombos; mask++ {
		for b, d := range sc.ties {
			if mask&(1<<uint(b)) == 0 {
				sc.dirs[d] = topology.Plus
			} else {
				sc.dirs[d] = topology.Minus
			}
		}
		route(cs, sc.dirs, sc.dists, comboVol, sc)
	}
}

// TestStencilCacheEquivalence checks that the displacement-stencil cache
// reproduces the direct DP's channel loads on wrapped, unwrapped, and mixed
// shapes (including odd extents and tie-prone even extents).
func TestStencilCacheEquivalence(t *testing.T) {
	topos := []*topology.Torus{
		topology.NewTorus(4, 4, 4),
		topology.NewTorus(8, 8),
		topology.NewTorus(5, 4, 3),
		topology.NewMesh(4, 4, 4),
		topology.NewMesh(7, 3),
		topology.NewMixed([]int{4, 6}, []bool{true, false}),
	}
	for ti, tp := range topos {
		t.Run(fmt.Sprint(tp), func(t *testing.T) {
			g := randomGraph(tp.N(), int64(ti+1))
			m := topology.Mapping(rand.New(rand.NewSource(int64(ti + 100))).Perm(tp.N()))
			cached := ChannelLoads(tp, g, m, MinimalAdaptive{})
			direct := ChannelLoads(tp, g, m, directDP{})
			if len(cached) != len(direct) {
				t.Fatalf("load vector lengths differ: %d vs %d", len(cached), len(direct))
			}
			for ch := range cached {
				diff := math.Abs(cached[ch] - direct[ch])
				scale := math.Max(1, math.Abs(direct[ch]))
				if diff > 1e-9*scale {
					t.Fatalf("channel %d: cached %.17g, direct %.17g", ch, cached[ch], direct[ch])
				}
			}
			if m1, m2 := MCL(cached), MCL(direct); math.Abs(m1-m2) > 1e-9*math.Max(1, m2) {
				t.Fatalf("MCL mismatch: cached %.17g, direct %.17g", m1, m2)
			}
		})
	}
}

// TestStencilCacheDeterministic checks the cached evaluator is bitwise
// reproducible call to call — the property the parallel scheduler's
// determinism guarantee rests on.
func TestStencilCacheDeterministic(t *testing.T) {
	tp := topology.NewTorus(4, 4, 4)
	g := randomGraph(tp.N(), 7)
	m := topology.Mapping(rand.New(rand.NewSource(7)).Perm(tp.N()))
	a := ChannelLoads(tp, g, m, MinimalAdaptive{})
	for rep := 0; rep < 3; rep++ {
		b := ChannelLoads(tp, g, m, MinimalAdaptive{})
		for ch := range a {
			if a[ch] != b[ch] {
				t.Fatalf("rep %d channel %d: %.17g != %.17g", rep, ch, a[ch], b[ch])
			}
		}
	}
}

// TestStencilCacheConcurrent hammers the cache from many goroutines (run
// under -race in CI) and checks every worker computes identical loads.
func TestStencilCacheConcurrent(t *testing.T) {
	tp := topology.NewTorus(6, 4, 2)
	g := randomGraph(tp.N(), 11)
	m := topology.Mapping(rand.New(rand.NewSource(11)).Perm(tp.N()))
	want := ChannelLoads(tp, g, m, MinimalAdaptive{})
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for rep := 0; rep < 20; rep++ {
				got := ChannelLoads(tp, g, m, MinimalAdaptive{})
				for ch := range got {
					if got[ch] != want[ch] {
						select {
						case errs <- fmt.Errorf("channel %d: %g != %g", ch, got[ch], want[ch]):
						default:
						}
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	if err := <-errs; err != nil {
		t.Fatal(err)
	}
}

// TestStencilKeyBounds covers the fallback edges of the key encoding.
func TestStencilKeyBounds(t *testing.T) {
	if _, ok := stencilKey([]int{1, 2, 3}); !ok {
		t.Fatal("small vector must be encodable")
	}
	if _, ok := stencilKey(make([]int, maxStencilDims+1)); ok {
		t.Fatal("too many dims must fall back")
	}
	if _, ok := stencilKey([]int{maxStencilDist + 1}); ok {
		t.Fatal("oversized distance must fall back")
	}
	k1, _ := stencilKey([]int{1, 0})
	k2, _ := stencilKey([]int{0, 1})
	if k1 == k2 {
		t.Fatal("distinct distance vectors must get distinct keys")
	}
}

func BenchmarkMinimalAdaptiveStencil(b *testing.B) {
	tp := topology.NewTorus(8, 8, 8)
	g := randomGraph(tp.N(), 3)
	m := topology.Identity(tp.N())
	for _, cfg := range []struct {
		name string
		alg  Algorithm
	}{
		{"cached", MinimalAdaptive{}},
		{"direct", directDP{}},
	} {
		b.Run(cfg.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				loads := ChannelLoads(tp, g, m, cfg.alg)
				_ = loads
			}
		})
	}
}
