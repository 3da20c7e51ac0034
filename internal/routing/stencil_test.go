package routing

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"

	"rahtm/internal/graph"
	"rahtm/internal/telemetry"
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
// against: it makes AddLoads' routing decisions but runs the
// proportional-split DP directly over every direction box, never through
// a stencil.
type directDP struct{}

func (directDP) Name() string { return "minimal-adaptive-direct" }

func (directDP) AddLoads(t *topology.Torus, src, dst int, vol float64, loads []float64) {
	if src == dst || vol == 0 {
		return
	}
	var sc scratch
	sc.size(t.NumDims())
	cs := t.CoordOf(src, sc.cs)
	cd := t.CoordOf(dst, sc.cd)
	numCombos := prepareDirs(t, cs, cd, &sc)
	for mask := 0; mask < numCombos; mask++ {
		sc.setTies(mask)
		addMinimalBoxLoads(t, cs, sc.dirs, sc.dists, vol/float64(numCombos), loads)
	}
}

// addMinimalBoxLoads runs the proportional-split DP over the minimal box
// defined by the source coordinate, the per-dimension travel directions and
// distances, adding channel loads for vol units of flow.
func addMinimalBoxLoads(t *topology.Torus, cs, dirs, dists []int, vol float64, loads []float64) {
	nd := t.NumDims()
	// Box shape and local strides (row-major, last dim fastest).
	total := 1
	shape := make([]int, nd)
	for d := 0; d < nd; d++ {
		shape[d] = dists[d] + 1
		total *= shape[d]
	}
	strides := make([]int, nd)
	s := 1
	for d := nd - 1; d >= 0; d-- {
		strides[d] = s
		s *= shape[d]
	}
	p := make([]float64, total)
	p[0] = vol
	u := make([]int, nd)
	coord := make([]int, nd)
	for idx := 0; idx < total; idx++ {
		pu := p[idx]
		if pu == 0 {
			incOffset(u, shape)
			continue
		}
		remain := 0
		for d := 0; d < nd; d++ {
			remain += dists[d] - u[d]
		}
		if remain > 0 {
			// Torus rank of the node at offset u.
			for d := 0; d < nd; d++ {
				k := t.Dim(d)
				if dirs[d] == topology.Plus {
					coord[d] = (cs[d] + u[d]) % k
				} else {
					coord[d] = ((cs[d]-u[d])%k + k) % k
				}
			}
			node := t.RankOf(coord)
			inv := pu / float64(remain)
			for d := 0; d < nd; d++ {
				left := dists[d] - u[d]
				if left == 0 {
					continue
				}
				frac := inv * float64(left)
				loads[t.ChannelID(node, d, dirs[d])] += frac
				p[idx+strides[d]] += frac
			}
		}
		incOffset(u, shape)
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

// emptyStencilCache forgets every cached stencil, frees the cell budget,
// and drops the pooled scratches, whose memos may still hold stencils.
func emptyStencilCache() {
	stencilCache.Range(func(key, _ any) bool {
		stencilCache.Delete(key)
		return true
	})
	stencilCells.Store(0)
	scratchPool = sync.Pool{New: scratchPool.New}
}

// TestStencilHistoryIndependence checks that a flow's loads do not depend
// on what the process-wide cache holds. From an empty cache, each graph is
// routed once with the cell budget free and once with it spent, where
// every box misses the cache and is routed through a stencil built for it
// alone. Every channel, dense through AddLoads and sparse through
// Table.AddLoadsDelta, must be bit-identical between the two runs.
func TestStencilHistoryIndependence(t *testing.T) {
	defer emptyStencilCache()
	for ti, tp := range []*topology.Torus{
		topology.NewTorus(8, 8, 8),
		topology.NewTorus(6, 6, 6),
		topology.NewMesh(7, 5, 3),
	} {
		g := randomGraph(tp.N(), int64(ti+21))
		m := topology.Mapping(rand.New(rand.NewSource(int64(ti + 121))).Perm(tp.N()))
		route := func(spent bool) (dense, sparse []float64, misses int64) {
			emptyStencilCache()
			if spent {
				stencilCells.Store(maxStencilCells)
			}
			scope := telemetry.NewScope("history")
			alg := MinimalAdaptive{}.WithScope(scope)
			dense = ChannelLoads(tp, g, m, alg)
			tab := alg.Table(tp)
			dv := NewDeltaVec(tp.NumChannels())
			g.EachFlow(func(s, d int, vol float64) { tab.AddLoadsDelta(m[s], m[d], vol, dv) })
			tab.Flush()
			sparse = make([]float64, tp.NumChannels())
			dv.AddTo(sparse)
			return dense, sparse, scope.Counter(telemetry.CtrStencilMisses).Value()
		}
		freeDense, freeSparse, freeMisses := route(false)
		spentDense, spentSparse, spentMisses := route(true)
		if freeMisses != 0 || spentMisses == 0 {
			t.Fatalf("%v: %d misses with the budget free, %d spent; want none and some", tp, freeMisses, spentMisses)
		}
		for ch, want := range freeDense {
			for _, got := range []struct {
				name string
				v    float64
			}{{"free sparse", freeSparse[ch]}, {"spent dense", spentDense[ch]}, {"spent sparse", spentSparse[ch]}} {
				if math.Float64bits(got.v) != math.Float64bits(want) {
					t.Fatalf("%v channel %d: %s %.17g, free dense %.17g", tp, ch, got.name, got.v, want)
				}
			}
		}
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
