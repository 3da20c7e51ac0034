package cluster

import (
	"math/rand"
	"testing"
	"testing/quick"

	"rahtm/internal/graph"
)

// grid2D builds a 2-D nearest-neighbor (halo) communication graph on an
// r x c row-major grid with per-edge volume w, periodic when wrap is set.
func grid2D(r, c int, w float64, wrap bool) *graph.Comm {
	g := graph.New(r * c)
	id := func(i, j int) int { return i*c + j }
	for i := 0; i < r; i++ {
		for j := 0; j < c; j++ {
			if j+1 < c || wrap {
				g.AddTraffic(id(i, j), id(i, (j+1)%c), w)
				g.AddTraffic(id(i, (j+1)%c), id(i, j), w)
			}
			if i+1 < r || wrap {
				g.AddTraffic(id(i, j), id((i+1)%r, j), w)
				g.AddTraffic(id((i+1)%r, j), id(i, j), w)
			}
		}
	}
	return g.Build()
}

func TestTileGridSquareTileForIsotropicStencil(t *testing.T) {
	g := grid2D(4, 4, 1, false)
	res, err := TileGrid(g, []int{4, 4}, 4)
	if err != nil {
		t.Fatal(err)
	}
	// For an isotropic stencil the 2x2 tile absorbs the most volume.
	if res.TileShape[0] != 2 || res.TileShape[1] != 2 {
		t.Fatalf("tile = %v, want [2 2]", res.TileShape)
	}
	if res.NumClusters != 4 {
		t.Fatalf("clusters = %d, want 4", res.NumClusters)
	}
	if res.GridDims[0] != 2 || res.GridDims[1] != 2 {
		t.Fatalf("coarse grid = %v, want [2 2]", res.GridDims)
	}
}

func TestTileGridAnisotropicPrefersElongatedTile(t *testing.T) {
	// Heavy row-direction traffic: a 1x4 tile absorbs the heavy edges.
	b := graph.New(16)
	id := func(i, j int) int { return i*4 + j }
	for i := 0; i < 4; i++ {
		for j := 0; j < 4; j++ {
			if j+1 < 4 {
				b.AddTraffic(id(i, j), id(i, j+1), 100)
			}
			if i+1 < 4 {
				b.AddTraffic(id(i, j), id(i+1, j), 1)
			}
		}
	}
	g := b.Build()
	res, err := TileGrid(g, []int{4, 4}, 4)
	if err != nil {
		t.Fatal(err)
	}
	if res.TileShape[0] != 1 || res.TileShape[1] != 4 {
		t.Fatalf("tile = %v, want [1 4]", res.TileShape)
	}
}

func TestTileGridClusterIdsAreRowMajor(t *testing.T) {
	g := grid2D(4, 4, 1, false)
	res, err := TileGrid(g, []int{4, 4}, 4)
	if err != nil {
		t.Fatal(err)
	}
	// With 2x2 tiles, vertex (0,0) is in tile 0, (0,2) in tile 1,
	// (2,0) in tile 2, (2,2) in tile 3.
	if res.Assign[0] != 0 || res.Assign[2] != 1 || res.Assign[8] != 2 || res.Assign[10] != 3 {
		t.Fatalf("assignment not row-major: %v", res.Assign)
	}
}

func TestTileGridTileVolumeOne(t *testing.T) {
	g := grid2D(2, 2, 1, false)
	res, err := TileGrid(g, []int{2, 2}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if res.NumClusters != 4 || res.IntraVolume != 0 {
		t.Fatalf("unexpected: %+v", res)
	}
	if !res.Coarse.Equal(g, 0) {
		t.Fatal("volume-1 tiling must preserve the graph")
	}
}

func TestTileGridErrors(t *testing.T) {
	g := grid2D(4, 4, 1, false)
	if _, err := TileGrid(g, []int{4, 4}, 3); err == nil {
		t.Fatal("expected error: 3 does not divide 16 into fitting tiles")
	}
	if _, err := TileGrid(g, []int{4, 3}, 4); err == nil {
		t.Fatal("expected error: grid size mismatch")
	}
	if _, err := TileGrid(g, []int{0, 4}, 4); err == nil {
		t.Fatal("expected error: zero grid dim")
	}
	if _, err := TileGrid(g, []int{4, 4}, 5); err == nil {
		t.Fatal("expected error: volume 5 does not divide")
	}
}

func TestGreedyPairsHeaviestEdges(t *testing.T) {
	b := graph.New(4)
	b.AddTraffic(0, 3, 100)
	b.AddTraffic(1, 2, 90)
	b.AddTraffic(0, 1, 1)
	g := b.Build()
	res, err := Greedy(g, 2)
	if err != nil {
		t.Fatal(err)
	}
	if res.Assign[0] != res.Assign[3] || res.Assign[1] != res.Assign[2] {
		t.Fatalf("heavy pairs split: %v", res.Assign)
	}
	if res.IntraVolume != 190 {
		t.Fatalf("intra = %v, want 190", res.IntraVolume)
	}
}

func TestGreedyGroupSizeFour(t *testing.T) {
	g := grid2D(4, 4, 1, false)
	res, err := Greedy(g, 4)
	if err != nil {
		t.Fatal(err)
	}
	if res.NumClusters != 4 {
		t.Fatalf("clusters = %d, want 4", res.NumClusters)
	}
	counts := make(map[int]int)
	for _, c := range res.Assign {
		counts[c]++
	}
	for c, n := range counts {
		if n != 4 {
			t.Fatalf("cluster %d has %d members, want 4", c, n)
		}
	}
}

func TestGreedyErrors(t *testing.T) {
	g := graph.New(6).Build()
	if _, err := Greedy(g, 3); err == nil {
		t.Fatal("expected error: non-power-of-two group")
	}
	if _, err := Greedy(g, 4); err == nil {
		t.Fatal("expected error: 4 does not divide 6")
	}
}

func TestGreedyDisconnectedVerticesStillGrouped(t *testing.T) {
	g := graph.New(8).Build() // no edges at all
	res, err := Greedy(g, 4)
	if err != nil {
		t.Fatal(err)
	}
	counts := make(map[int]int)
	for _, c := range res.Assign {
		counts[c]++
	}
	if len(counts) != 2 {
		t.Fatalf("clusters = %d, want 2", len(counts))
	}
	for _, n := range counts {
		if n != 4 {
			t.Fatalf("uneven clusters: %v", counts)
		}
	}
}

func TestAutoPrefersTilingThenFallsBack(t *testing.T) {
	g := grid2D(4, 4, 1, false)
	res, err := Auto(g, []int{4, 4}, 4)
	if err != nil {
		t.Fatal(err)
	}
	if res.TileShape == nil {
		t.Fatal("auto should have tiled")
	}
	//

	// Grid dims that do not fit force the greedy path.
	res, err = Auto(g, nil, 4)
	if err != nil {
		t.Fatal(err)
	}
	if res.TileShape != nil {
		t.Fatal("auto without grid dims must use greedy")
	}
}

func TestQuality(t *testing.T) {
	g := grid2D(4, 4, 1, false)
	res, err := TileGrid(g, []int{4, 4}, 4)
	if err != nil {
		t.Fatal(err)
	}
	q := Quality(g, res)
	if q <= 0 || q >= 1 {
		t.Fatalf("quality = %v, want in (0,1)", q)
	}
	empty := graph.New(4).Build()
	r2, err := TileGrid(empty, []int{2, 2}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if Quality(empty, r2) != 1 {
		t.Fatal("empty graph quality should be 1")
	}
}

// Property: every tiling produces clusters of exactly tileVol members and
// conserves volume.
func TestQuickTilingInvariants(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		r := []int{2, 4, 8}[rng.Intn(3)]
		c := []int{2, 4, 8}[rng.Intn(3)]
		b := graph.New(r * c)
		for e := 0; e < r*c; e++ {
			b.AddTraffic(rng.Intn(r*c), rng.Intn(r*c), float64(1+rng.Intn(9)))
		}
		g := b.Build()
		vols := []int{2, 4}
		vol := vols[rng.Intn(len(vols))]
		res, err := TileGrid(g, []int{r, c}, vol)
		if err != nil {
			return false
		}
		counts := make(map[int]int)
		for _, cl := range res.Assign {
			counts[cl]++
		}
		for _, n := range counts {
			if n != vol {
				return false
			}
		}
		diff := res.Coarse.TotalVolume() + res.IntraVolume - g.TotalVolume()
		return diff < 1e-9 && diff > -1e-9
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Property: greedy clustering conserves volume too.
func TestQuickGreedyVolumeConservation(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 8 * (1 + rng.Intn(3))
		b := graph.New(n)
		for e := 0; e < 3*n; e++ {
			b.AddTraffic(rng.Intn(n), rng.Intn(n), float64(1+rng.Intn(9)))
		}
		g := b.Build()
		res, err := Greedy(g, 8)
		if err != nil {
			return n%8 != 0
		}
		diff := res.Coarse.TotalVolume() + res.IntraVolume - g.TotalVolume()
		return diff < 1e-9 && diff > -1e-9
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
