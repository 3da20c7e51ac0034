package graph

import (
	"bytes"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func TestAddAndQueryTraffic(t *testing.T) {
	b := New(4)
	b.AddTraffic(0, 1, 5)
	b.AddTraffic(0, 1, 3)
	b.AddTraffic(1, 0, 2)
	g := b.Build()
	if got := g.Traffic(0, 1); got != 8 {
		t.Fatalf("Traffic(0,1) = %v, want 8", got)
	}
	if got := g.Traffic(1, 0); got != 2 {
		t.Fatalf("Traffic(1,0) = %v, want 2", got)
	}
	if got := g.Traffic(2, 3); got != 0 {
		t.Fatalf("Traffic(2,3) = %v, want 0", got)
	}
}

func TestSelfTrafficIgnored(t *testing.T) {
	b := New(2)
	b.AddTraffic(1, 1, 100)
	b.AddTraffic(0, 1, -5)
	b.AddTraffic(0, 1, 0)
	g := b.Build()
	if g.NumEdges() != 0 || g.TotalVolume() != 0 {
		t.Fatalf("self/non-positive traffic recorded: edges=%d vol=%v", g.NumEdges(), g.TotalVolume())
	}
}

func TestFlowsDeterministicOrder(t *testing.T) {
	b := New(5)
	b.AddTraffic(3, 1, 1)
	b.AddTraffic(0, 4, 2)
	b.AddTraffic(0, 2, 3)
	b.AddTraffic(3, 0, 4)
	fl := b.Build().Flows()
	want := []Flow{{0, 2, 3}, {0, 4, 2}, {3, 0, 4}, {3, 1, 1}}
	if len(fl) != len(want) {
		t.Fatalf("Flows len = %d, want %d", len(fl), len(want))
	}
	for i := range want {
		if fl[i] != want[i] {
			t.Fatalf("Flows[%d] = %+v, want %+v", i, fl[i], want[i])
		}
	}
}

func TestCoarsen(t *testing.T) {
	// 4 vertices in 2 clusters {0,1}, {2,3}.
	b := New(4)
	b.AddTraffic(0, 1, 5)  // intra
	b.AddTraffic(0, 2, 3)  // inter
	b.AddTraffic(3, 1, 2)  // inter
	b.AddTraffic(2, 3, 10) // intra
	cg, intra := b.Build().Coarsen([]int{0, 0, 1, 1}, 2)
	if intra != 15 {
		t.Fatalf("intra = %v, want 15", intra)
	}
	if cg.Traffic(0, 1) != 3 || cg.Traffic(1, 0) != 2 {
		t.Fatalf("coarse traffic = %v/%v, want 3/2", cg.Traffic(0, 1), cg.Traffic(1, 0))
	}
	if cg.N() != 2 {
		t.Fatalf("coarse N = %d, want 2", cg.N())
	}
}

func TestInducedSubgraph(t *testing.T) {
	b := New(5)
	b.AddTraffic(1, 3, 7)
	b.AddTraffic(3, 4, 2)
	b.AddTraffic(0, 1, 9)
	sub, local := b.Build().InducedSubgraph([]int{1, 3})
	if sub.N() != 2 {
		t.Fatalf("sub N = %d", sub.N())
	}
	if sub.Traffic(local[1], local[3]) != 7 {
		t.Fatalf("edge 1->3 lost")
	}
	if sub.TotalVolume() != 7 {
		t.Fatalf("external edges leaked: vol = %v", sub.TotalVolume())
	}
}

func TestEqualAndRebuild(t *testing.T) {
	b := New(3)
	b.AddTraffic(0, 1, 4)
	b.AddTraffic(2, 1, 1)
	g := b.Build()
	c := rebuilt(g)
	if !g.Equal(c.Build(), 0) {
		t.Fatal("rebuilt graph not equal")
	}
	c.AddTraffic(0, 2, 1)
	if g.Equal(c.Build(), 0) {
		t.Fatal("graph with an extra edge still equal")
	}
	if g.Equal(New(4).Build(), 0) {
		t.Fatal("different sizes equal")
	}
}

func TestStructuralHash(t *testing.T) {
	gb := New(4)
	gb.AddTraffic(0, 1, 3)
	gb.AddTraffic(2, 3, 5)
	hb := New(4)
	hb.AddTraffic(2, 3, 5)
	hb.AddTraffic(0, 1, 3)
	g := gb.Build()
	if g.StructuralHash() != hb.Build().StructuralHash() {
		t.Fatal("hash depends on insertion order")
	}
	hb.AddTraffic(0, 1, 0.5)
	if g.StructuralHash() == hb.Build().StructuralHash() {
		t.Fatal("hash ignores volume change")
	}
	if New(4).Build().StructuralHash() == New(5).Build().StructuralHash() {
		t.Fatal("hash ignores vertex count")
	}
}

func TestRoundTripSerialization(t *testing.T) {
	b := New(6)
	b.AddTraffic(0, 5, 1.5)
	b.AddTraffic(3, 2, 42)
	g := b.Build()
	var buf bytes.Buffer
	if _, err := g.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !g.Equal(got, 1e-12) {
		t.Fatalf("round trip mismatch:\n%v", buf.String())
	}
}

func TestReadErrors(t *testing.T) {
	cases := []string{
		"",
		"bad header",
		"comm x",
		"comm 2\n0 1\n",
		"comm 2\n0 9 1\n",
		"comm 2\na b c\n",
	}
	for _, c := range cases {
		if _, err := Read(strings.NewReader(c)); err == nil {
			t.Fatalf("Read(%q) succeeded, want error", c)
		}
	}
}

func TestReadSkipsCommentsAndBlanks(t *testing.T) {
	in := "comm 3\n# comment\n\n0 1 2.5\n"
	g, err := Read(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if g.Traffic(0, 1) != 2.5 {
		t.Fatal("comment handling broke parsing")
	}
}

func TestOutVolumeAndNeighbors(t *testing.T) {
	b := New(4)
	b.AddTraffic(1, 0, 2)
	b.AddTraffic(1, 3, 5)
	g := b.Build()
	if g.OutVolume(1) != 7 {
		t.Fatalf("OutVolume = %v", g.OutVolume(1))
	}
	nb := g.Neighbors(1)
	if len(nb) != 2 || nb[0] != 0 || nb[1] != 3 {
		t.Fatalf("Neighbors = %v", nb)
	}
}

// Property: coarsening preserves total volume (inter + intra).
func TestQuickCoarsenVolumeConservation(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(20)
		parts := 1 + rng.Intn(n)
		b := New(n)
		for e := 0; e < 3*n; e++ {
			b.AddTraffic(rng.Intn(n), rng.Intn(n), float64(1+rng.Intn(9)))
		}
		g := b.Build()
		assign := make([]int, n)
		for i := range assign {
			assign[i] = rng.Intn(parts)
		}
		cg, intra := g.Coarsen(assign, parts)
		tot := cg.TotalVolume() + intra
		diff := tot - g.TotalVolume()
		return diff < 1e-9 && diff > -1e-9
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: serialization round-trips arbitrary graphs.
func TestQuickSerializationRoundTrip(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(12)
		b := New(n)
		for e := 0; e < n*2; e++ {
			b.AddTraffic(rng.Intn(n), rng.Intn(n), rng.Float64()*100)
		}
		g := b.Build()
		var buf bytes.Buffer
		if _, err := g.WriteTo(&buf); err != nil {
			return false
		}
		got, err := Read(&buf)
		if err != nil {
			return false
		}
		return g.Equal(got, 1e-9)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}
