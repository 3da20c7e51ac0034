package fattree

import (
	"math"
	"testing"

	"rahtm/internal/graph"
	"rahtm/internal/topology"
)

func TestConstruction(t *testing.T) {
	f, err := New(4, 2)
	if err != nil {
		t.Fatal(err)
	}
	if f.Hosts() != 16 || f.Arity() != 4 || f.Levels() != 2 {
		t.Fatalf("%v", f)
	}
	if f.String() != "fattree(4-ary, 2 levels, 16 hosts)" {
		t.Fatalf("String = %q", f.String())
	}
	if _, err := New(1, 2); err == nil {
		t.Fatal("arity 1 should fail")
	}
	if _, err := New(2, 0); err == nil {
		t.Fatal("0 levels should fail")
	}
}

func TestSubtreeOf(t *testing.T) {
	f, _ := New(2, 3) // 8 hosts
	if f.SubtreeOf(5, 0) != 5 {
		t.Fatal("level 0 subtree is the host")
	}
	if f.SubtreeOf(5, 1) != 2 || f.SubtreeOf(5, 2) != 1 || f.SubtreeOf(5, 3) != 0 {
		t.Fatalf("subtrees of host 5: %d %d %d",
			f.SubtreeOf(5, 1), f.SubtreeOf(5, 2), f.SubtreeOf(5, 3))
	}
}

func TestLinkIDsDense(t *testing.T) {
	f, _ := New(2, 2) // 4 hosts
	seen := make(map[int]bool)
	for level := 0; level < f.Levels(); level++ {
		for s := 0; s < f.Hosts()/f.Uplinks(level); s++ {
			for u := 0; u < f.Uplinks(level); u++ {
				id := f.LinkID(level, s, u)
				if id < 0 || id >= f.NumLinks() || seen[id] {
					t.Fatalf("bad or duplicate link id %d", id)
				}
				seen[id] = true
			}
		}
	}
	if len(seen) != f.NumLinks() {
		t.Fatalf("covered %d of %d links", len(seen), f.NumLinks())
	}
}

func TestLoadsSameLeafSwitch(t *testing.T) {
	f, _ := New(2, 2)
	b := graph.New(4)
	b.AddTraffic(0, 1, 10) // hosts 0,1 share the leaf switch
	g := b.Build()
	loads, err := f.Loads(g, topology.Identity(4), ECMP)
	if err != nil {
		t.Fatal(err)
	}
	// Only the two host links carry traffic.
	total := 0.0
	for _, v := range loads {
		total += v
	}
	if math.Abs(total-20) > 1e-9 {
		t.Fatalf("total load = %v, want 20 (host links only)", total)
	}
	if loads[f.LinkID(0, 0, 0)] != 10 || loads[f.LinkID(0, 1, 0)] != 10 {
		t.Fatalf("host link loads wrong: %v", loads)
	}
}

func TestLoadsCrossTree(t *testing.T) {
	f, _ := New(2, 2) // hosts 0..3; leaves {0,1},{2,3}
	b := graph.New(4)
	b.AddTraffic(0, 2, 8)
	g := b.Build()
	loads, err := f.Loads(g, topology.Identity(4), ECMP)
	if err != nil {
		t.Fatal(err)
	}
	// Host links: 8 each at hosts 0 and 2. Level-1 uplinks: each leaf has
	// 2 uplinks; ECMP puts 4 on each of src-leaf's and dst-leaf's uplinks.
	if loads[f.LinkID(0, 0, 0)] != 8 || loads[f.LinkID(0, 2, 0)] != 8 {
		t.Fatalf("host links: %v", loads)
	}
	for _, leaf := range []int{0, 1} {
		for u := 0; u < 2; u++ {
			if math.Abs(loads[f.LinkID(1, leaf, u)]-4) > 1e-9 {
				t.Fatalf("leaf %d uplink %d = %v, want 4", leaf, u, loads[f.LinkID(1, leaf, u)])
			}
		}
	}
}

func TestDModKConcentrates(t *testing.T) {
	f, _ := New(2, 2)
	b := graph.New(4)
	b.AddTraffic(0, 2, 8)
	g := b.Build()
	loads, err := f.Loads(g, topology.Identity(4), DModK)
	if err != nil {
		t.Fatal(err)
	}
	// dst=2, uplinks=2 at level 1 -> uplink 0 carries all 8.
	if loads[f.LinkID(1, 0, 0)] != 8 || loads[f.LinkID(1, 0, 1)] != 0 {
		t.Fatalf("d-mod-k loads: %v", loads)
	}
}

func TestECMPNeverWorseThanDModK(t *testing.T) {
	f, _ := New(2, 3)
	b := graph.New(8)
	for i := 0; i < 8; i++ {
		b.AddTraffic(i, (i+3)%8, float64(1+i))
		b.AddTraffic(i, 7-i, 2)
	}
	g := b.Build()
	m := topology.Identity(8)
	ecmp, err := f.MCL(g, m, ECMP)
	if err != nil {
		t.Fatal(err)
	}
	dmodk, err := f.MCL(g, m, DModK)
	if err != nil {
		t.Fatal(err)
	}
	if ecmp > dmodk+1e-9 {
		t.Fatalf("ECMP MCL %v worse than d-mod-k %v", ecmp, dmodk)
	}
}

func TestMapConfinesCommunities(t *testing.T) {
	// Four 2-task heavy pairs with light cross traffic: the mapper must
	// put each pair under one leaf switch, zeroing their uplink load.
	f, _ := New(2, 3) // 8 hosts, leaves of 2
	b := graph.New(8)
	pairs := [][2]int{{0, 5}, {1, 4}, {2, 7}, {3, 6}}
	for _, p := range pairs {
		b.AddTraffic(p[0], p[1], 100)
		b.AddTraffic(p[1], p[0], 100)
	}
	b.AddTraffic(0, 1, 1)
	g := b.Build()
	m, err := f.Map(g, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range pairs {
		if f.SubtreeOf(m[p[0]], 1) != f.SubtreeOf(m[p[1]], 1) {
			t.Fatalf("heavy pair %v split across leaves (mapping %v)", p, m)
		}
	}
	// MCL should crush the identity mapping's.
	opt, err := f.SwitchMCL(g, m, ECMP)
	if err != nil {
		t.Fatal(err)
	}
	id, err := f.SwitchMCL(g, topology.Identity(8), ECMP)
	if err != nil {
		t.Fatal(err)
	}
	if opt >= id {
		t.Fatalf("mapper MCL %v not better than identity %v", opt, id)
	}
}

func TestMapGridWorkload(t *testing.T) {
	// An 4x4 halo mapped to a 4-ary 2-level tree: tiling should confine
	// tile-internal traffic.
	f, _ := New(4, 2)
	b := graph.New(16)
	id := func(i, j int) int { return i*4 + j }
	for i := 0; i < 4; i++ {
		for j := 0; j < 4; j++ {
			b.AddTraffic(id(i, j), id(i, (j+1)%4), 5)
			b.AddTraffic(id(i, j), id((i+1)%4, j), 5)
		}
	}
	g := b.Build()
	m, err := f.Map(g, []int{4, 4})
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Validate(16, true); err != nil {
		t.Fatal(err)
	}
}

func TestMapErrors(t *testing.T) {
	f, _ := New(2, 2)
	if _, err := f.Map(graph.New(5).Build(), nil); err == nil {
		t.Fatal("task count mismatch should fail")
	}
	f3, _ := New(3, 2)
	if _, err := f3.Map(graph.New(9).Build(), nil); err == nil {
		t.Fatal("non-power-of-two arity mapping should fail")
	}
}

func TestLoadsMappingMismatch(t *testing.T) {
	f, _ := New(2, 2)
	if _, err := f.Loads(graph.New(4).Build(), topology.Mapping{0, 1}, ECMP); err == nil {
		t.Fatal("short mapping should fail")
	}
}

func TestRoutingString(t *testing.T) {
	if ECMP.String() != "ecmp" || DModK.String() != "d-mod-k" {
		t.Fatal("routing names")
	}
}
