package routing

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"rahtm/internal/graph"
	"rahtm/internal/topology"
)

// enumerateMinimalPathLoads is the brute-force oracle: it enumerates every
// minimal path (distance-decreasing hops) from src to dst and spreads vol
// uniformly over them.
func enumerateMinimalPathLoads(t *topology.Torus, src, dst int, vol float64, loads []float64) int {
	type step struct{ node, ch int }
	var paths [][]step
	var cur []step
	var dfs func(v int)
	dfs = func(v int) {
		if v == dst {
			paths = append(paths, append([]step(nil), cur...))
			return
		}
		dv := t.MinDistance(v, dst)
		for dim := 0; dim < t.NumDims(); dim++ {
			for dir := 0; dir < 2; dir++ {
				next, ok := t.NeighborRank(v, dim, dir)
				if !ok || t.MinDistance(next, dst) != dv-1 {
					continue
				}
				cur = append(cur, step{node: v, ch: t.ChannelID(v, dim, dir)})
				dfs(next)
				cur = cur[:len(cur)-1]
			}
		}
	}
	dfs(src)
	if len(paths) == 0 {
		return 0
	}
	w := vol / float64(len(paths))
	for _, p := range paths {
		for _, s := range p {
			loads[s.ch] += w
		}
	}
	return len(paths)
}

func TestMinimalAdaptiveTwoNodeLine(t *testing.T) {
	tp := topology.NewMesh(2)
	loads := make([]float64, tp.NumChannels())
	MinimalAdaptive{}.AddLoads(tp, 0, 1, 3, loads)
	if got := loads[tp.ChannelID(0, 0, topology.Plus)]; got != 3 {
		t.Fatalf("load = %v, want 3", got)
	}
	if TotalLoad(loads) != 3 {
		t.Fatalf("total = %v, want 3", TotalLoad(loads))
	}
}

func TestMinimalAdaptiveDiagonalSplit(t *testing.T) {
	tp := topology.NewMesh(2, 2)
	loads := make([]float64, tp.NumChannels())
	MinimalAdaptive{}.AddLoads(tp, tp.RankOf([]int{0, 0}), tp.RankOf([]int{1, 1}), 1, loads)
	// Two minimal paths; all four traversed edges carry 0.5.
	expect := map[int]float64{
		tp.ChannelID(tp.RankOf([]int{0, 0}), 0, topology.Plus): 0.5,
		tp.ChannelID(tp.RankOf([]int{0, 0}), 1, topology.Plus): 0.5,
		tp.ChannelID(tp.RankOf([]int{0, 1}), 0, topology.Plus): 0.5,
		tp.ChannelID(tp.RankOf([]int{1, 0}), 1, topology.Plus): 0.5,
	}
	for ch, want := range expect {
		if math.Abs(loads[ch]-want) > 1e-12 {
			t.Fatalf("channel %d load = %v, want %v (loads=%v)", ch, loads[ch], want, loads)
		}
	}
	if math.Abs(TotalLoad(loads)-2) > 1e-12 {
		t.Fatalf("total = %v, want 2", TotalLoad(loads))
	}
}

func TestMinimalAdaptiveTorusTie(t *testing.T) {
	// 4-ring, flow 0 -> 2: distance 2 both ways; split 50/50.
	tp := topology.NewTorus(4)
	loads := make([]float64, tp.NumChannels())
	MinimalAdaptive{}.AddLoads(tp, 0, 2, 1, loads)
	want := map[int]float64{
		tp.ChannelID(0, 0, topology.Plus):  0.5,
		tp.ChannelID(1, 0, topology.Plus):  0.5,
		tp.ChannelID(0, 0, topology.Minus): 0.5,
		tp.ChannelID(3, 0, topology.Minus): 0.5,
	}
	for ch, w := range want {
		if math.Abs(loads[ch]-w) > 1e-12 {
			t.Fatalf("channel %d load = %v, want %v", ch, loads[ch], w)
		}
	}
}

func TestMinimalAdaptiveDoubleWideLink(t *testing.T) {
	// 2-ary 1-torus: both physical links between the two nodes split the
	// flow (the paper's "2-ary torus = 2-ary mesh with double links").
	tp := topology.NewTorus(2)
	loads := make([]float64, tp.NumChannels())
	MinimalAdaptive{}.AddLoads(tp, 0, 1, 4, loads)
	p := loads[tp.ChannelID(0, 0, topology.Plus)]
	m := loads[tp.ChannelID(0, 0, topology.Minus)]
	if math.Abs(p-2) > 1e-12 || math.Abs(m-2) > 1e-12 {
		t.Fatalf("double link loads = %v/%v, want 2/2", p, m)
	}
}

func TestMinimalAdaptiveMatchesPathEnumeration(t *testing.T) {
	topos := []*topology.Torus{
		topology.NewMesh(3, 3),
		topology.NewMesh(2, 2, 2),
		topology.NewTorus(4, 4),
		topology.NewTorus(2, 4),
		topology.NewMixed([]int{4, 3}, []bool{true, false}),
	}
	rng := rand.New(rand.NewSource(5))
	for _, tp := range topos {
		for trial := 0; trial < 40; trial++ {
			s := rng.Intn(tp.N())
			d := rng.Intn(tp.N())
			if s == d {
				continue
			}
			vol := 1 + rng.Float64()*9
			got := make([]float64, tp.NumChannels())
			MinimalAdaptive{}.AddLoads(tp, s, d, vol, got)
			want := make([]float64, tp.NumChannels())
			enumerateMinimalPathLoads(tp, s, d, vol, want)
			for ch := range want {
				if math.Abs(got[ch]-want[ch]) > 1e-9 {
					t.Fatalf("%v: flow %d->%d vol %v: channel %d: DP %v, oracle %v",
						tp, s, d, vol, ch, got[ch], want[ch])
				}
			}
		}
	}
}

func TestDimOrderSimplePath(t *testing.T) {
	tp := topology.NewMesh(3, 3)
	loads := make([]float64, tp.NumChannels())
	DimOrder{}.AddLoads(tp, tp.RankOf([]int{0, 0}), tp.RankOf([]int{2, 2}), 1, loads)
	// Default order: dim 0 first, then dim 1: (0,0)->(1,0)->(2,0)->(2,1)->(2,2).
	want := []int{
		tp.ChannelID(tp.RankOf([]int{0, 0}), 0, topology.Plus),
		tp.ChannelID(tp.RankOf([]int{1, 0}), 0, topology.Plus),
		tp.ChannelID(tp.RankOf([]int{2, 0}), 1, topology.Plus),
		tp.ChannelID(tp.RankOf([]int{2, 1}), 1, topology.Plus),
	}
	for _, ch := range want {
		if loads[ch] != 1 {
			t.Fatalf("channel %d load = %v, want 1 (loads %v)", ch, loads[ch], loads)
		}
	}
	if TotalLoad(loads) != 4 {
		t.Fatalf("total = %v, want 4", TotalLoad(loads))
	}
}

func TestDimOrderCustomOrder(t *testing.T) {
	tp := topology.NewMesh(3, 3)
	loads := make([]float64, tp.NumChannels())
	DimOrder{Order: []int{1, 0}}.AddLoads(tp, tp.RankOf([]int{0, 0}), tp.RankOf([]int{1, 1}), 1, loads)
	// Dim 1 first: (0,0)->(0,1)->(1,1).
	if loads[tp.ChannelID(tp.RankOf([]int{0, 0}), 1, topology.Plus)] != 1 {
		t.Fatal("dim-1-first path not taken")
	}
	if loads[tp.ChannelID(tp.RankOf([]int{0, 0}), 0, topology.Plus)] != 0 {
		t.Fatal("dim 0 taken first despite custom order")
	}
}

func TestDimOrderTorusWrap(t *testing.T) {
	tp := topology.NewTorus(4)
	loads := make([]float64, tp.NumChannels())
	DimOrder{}.AddLoads(tp, 0, 3, 1, loads)
	// Minimal direction is Minus (one wrap hop).
	if loads[tp.ChannelID(0, 0, topology.Minus)] != 1 {
		t.Fatalf("wrap hop not used: %v", loads)
	}
	if TotalLoad(loads) != 1 {
		t.Fatalf("total = %v, want 1", TotalLoad(loads))
	}
}

func TestChannelLoadsAggregatesAndSkipsColocated(t *testing.T) {
	tp := topology.NewMesh(2, 2)
	b := graph.New(4)
	b.AddTraffic(0, 1, 5)
	b.AddTraffic(1, 0, 5)
	b.AddTraffic(2, 3, 7) // will be colocated
	g := b.Build()
	m := topology.Mapping{0, 1, 2, 2}
	loads := ChannelLoads(tp, g, m, MinimalAdaptive{})
	if math.Abs(TotalLoad(loads)-10) > 1e-12 {
		t.Fatalf("total = %v, want 10 (colocated traffic must not hit network)", TotalLoad(loads))
	}
	if MCL(loads) != 5 {
		t.Fatalf("MCL = %v, want 5", MCL(loads))
	}
}

func TestStats(t *testing.T) {
	tp := topology.NewMesh(2)
	loads := make([]float64, tp.NumChannels())
	loads[tp.ChannelID(0, 0, topology.Plus)] = 4
	loads[tp.ChannelID(1, 0, topology.Minus)] = 2
	st := Stats(tp, loads)
	if st.MCL != 4 || st.Total != 6 || st.NumUsed != 2 {
		t.Fatalf("stats = %+v", st)
	}
	if math.Abs(st.Mean-3) > 1e-12 { // 2 physical links
		t.Fatalf("mean = %v, want 3", st.Mean)
	}
}

func TestMaxChannelLoadFigure1Intuition(t *testing.T) {
	// The paper's Figure 1: on a 2x2 mesh with minimal adaptive routing,
	// placing the heavy pair on a diagonal halves its per-link load.
	tp := topology.NewMesh(2, 2)
	b := graph.New(4)
	b.AddTraffic(0, 1, 10) // heavy pair
	b.AddTraffic(2, 3, 1)
	g := b.Build()
	adjacent := topology.Mapping{0, 1, 2, 3} // heavy pair adjacent
	diagonal := topology.Mapping{0, 3, 1, 2} // heavy pair on diagonal
	mclAdj := MaxChannelLoad(tp, g, adjacent, MinimalAdaptive{})
	mclDiag := MaxChannelLoad(tp, g, diagonal, MinimalAdaptive{})
	if mclAdj != 10 {
		t.Fatalf("adjacent MCL = %v, want 10", mclAdj)
	}
	if mclDiag >= mclAdj {
		t.Fatalf("diagonal placement (%v) should beat adjacent (%v)", mclDiag, mclAdj)
	}
	if math.Abs(mclDiag-5.5) > 1e-9 { // 5 from heavy split + 0.5 light split
		t.Fatalf("diagonal MCL = %v, want 5.5", mclDiag)
	}
}

// Property: total load equals volume times minimal distance for the
// minimal-adaptive model (every unit travels exactly the minimal hops).
func TestQuickTotalLoadIsVolumeTimesDistance(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		dims := make([]int, 1+rng.Intn(3))
		for i := range dims {
			dims[i] = 2 + rng.Intn(4)
		}
		var tp *topology.Torus
		if rng.Intn(2) == 0 {
			tp = topology.NewTorus(dims...)
		} else {
			tp = topology.NewMesh(dims...)
		}
		s, d := rng.Intn(tp.N()), rng.Intn(tp.N())
		vol := 1 + rng.Float64()*5
		loads := make([]float64, tp.NumChannels())
		MinimalAdaptive{}.AddLoads(tp, s, d, vol, loads)
		want := vol * float64(tp.MinDistance(s, d))
		if s == d {
			want = 0
		}
		return math.Abs(TotalLoad(loads)-want) < 1e-9
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: DOR total load also equals volume times minimal distance.
func TestQuickDORTotalLoad(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		dims := []int{2 + rng.Intn(4), 2 + rng.Intn(4)}
		tp := topology.NewTorus(dims...)
		s, d := rng.Intn(tp.N()), rng.Intn(tp.N())
		loads := make([]float64, tp.NumChannels())
		DimOrder{}.AddLoads(tp, s, d, 2, loads)
		want := 2 * float64(tp.MinDistance(s, d))
		if s == d {
			want = 0
		}
		return math.Abs(TotalLoad(loads)-want) < 1e-9
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: loads are only ever placed on physically existing channels.
func TestQuickLoadsOnlyOnRealChannels(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		tp := topology.NewMesh(1+rng.Intn(4), 1+rng.Intn(4))
		s, d := rng.Intn(tp.N()), rng.Intn(tp.N())
		loads := make([]float64, tp.NumChannels())
		MinimalAdaptive{}.AddLoads(tp, s, d, 1, loads)
		for ch, v := range loads {
			if v == 0 {
				continue
			}
			n, dim, dir := tp.DecodeChannel(ch)
			if !tp.ChannelExists(n, dim, dir) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestNodeBoundProperty checks NodeBound against seeded random graphs and
// random one-task-per-node placements on 2-ary meshes, 2-ary tori, k-ary
// tori and a k-ary mesh: no placement's MCL is below the bound, under the
// uniform split or dimension-order routing. The tolerance covers the
// rounding of a flow's split fractions.
func TestNodeBoundProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	tops := []*topology.Torus{
		topology.NewMesh(2, 2), topology.NewMesh(2, 2, 2, 2), topology.NewMesh(2, 2, 2, 2, 2, 2),
		topology.NewTorus(2, 2, 2), topology.NewTorus(2, 2, 2, 2),
		topology.NewTorus(3, 4), topology.NewTorus(4, 4, 2), topology.NewTorus(5, 3, 2),
		topology.NewMesh(4, 3),
	}
	for _, tp := range tops {
		n := tp.N()
		for trial := 0; trial < 20; trial++ {
			b := graph.New(n)
			for e := rng.Intn(4 * n); e >= 0; e-- {
				b.AddTraffic(rng.Intn(n), rng.Intn(n), 1+9*rng.Float64())
			}
			g := b.Build()
			bound := NodeBound(tp, g)
			m := topology.Mapping(rng.Perm(n))
			for _, alg := range []Algorithm{MinimalAdaptive{}, DimOrder{}} {
				if mcl := MaxChannelLoad(tp, g, m, alg); mcl < bound*(1-1e-12) {
					t.Fatalf("%v trial %d, %s: MCL %v below NodeBound %v", tp, trial, alg.Name(), mcl, bound)
				}
			}
		}
	}
}

// TestNodeBoundChannelCounts pins the divisor: a single flow of volume 12
// between neighbours reads 12/n on a 2-ary n-mesh, 12/2n on a 2-ary
// n-torus and a k-ary n-torus, and 12 divided by the interior degree on a
// k-ary mesh.
func TestNodeBoundChannelCounts(t *testing.T) {
	for _, tc := range []struct {
		tp   *topology.Torus
		want float64
	}{
		{topology.NewMesh(2, 2, 2), 4},
		{topology.NewTorus(2, 2, 2), 2},
		{topology.NewTorus(4, 4), 3},
		{topology.NewMesh(4, 4), 3},
		{topology.NewMesh(2, 1), 12},
		{topology.NewTorus(1), 0},
	} {
		b := graph.New(tc.tp.N())
		if tc.tp.N() > 1 {
			b.AddTraffic(0, 1, 12)
		}
		if got := NodeBound(tc.tp, b.Build()); got != tc.want {
			t.Errorf("%v: NodeBound %v, want %v", tc.tp, got, tc.want)
		}
	}
}
