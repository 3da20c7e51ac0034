package dragonfly

import (
	"math"
	"testing"

	"rahtm/internal/graph"
	"rahtm/internal/topology"
)

func mustNew(t *testing.T, g, a, p, h int) *Dragonfly {
	t.Helper()
	d, err := New(g, a, p, h)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestConstruction(t *testing.T) {
	d := mustNew(t, 5, 2, 2, 2) // a*h = 4 >= g-1 = 4
	if d.Hosts() != 20 || d.Groups() != 5 {
		t.Fatalf("%v", d)
	}
	if _, err := New(5, 2, 2, 1); err == nil {
		t.Fatal("insufficient global links should fail")
	}
	if _, err := New(0, 1, 1, 1); err == nil {
		t.Fatal("zero groups should fail")
	}
}

func TestHierarchyIndexing(t *testing.T) {
	d := mustNew(t, 3, 2, 2, 1)
	// Host 9: group 9/(2*2)=2, router 9/2=4, local router 0.
	if d.GroupOf(9) != 2 || d.RouterOf(9) != 4 || d.localRouter(d.RouterOf(9)) != 0 {
		t.Fatalf("host 9: group %d router %d", d.GroupOf(9), d.RouterOf(9))
	}
}

func TestGlobalLinkOwnerPalmtree(t *testing.T) {
	d := mustNew(t, 5, 2, 1, 2)
	// Group 0's peers in cyclic order: 1,2,3,4; h=2 per router -> router 0
	// owns links to 1,2; router 1 owns links to 3,4.
	if d.globalLinkOwner(0, 1) != 0 || d.globalLinkOwner(0, 2) != 0 {
		t.Fatal("owner of first two peers should be router 0")
	}
	if d.globalLinkOwner(0, 3) != 1 || d.globalLinkOwner(0, 4) != 1 {
		t.Fatal("owner of last two peers should be router 1")
	}
}

func TestSameRouterTrafficUsesHostLinksOnly(t *testing.T) {
	d := mustNew(t, 2, 2, 2, 1)
	b := graph.New(d.Hosts())
	b.AddTraffic(0, 1, 10) // hosts 0,1 share router 0
	g := b.Build()
	mcl, err := d.MCL(g, topology.Identity(d.Hosts()), Minimal)
	if err != nil {
		t.Fatal(err)
	}
	if mcl != 0 {
		t.Fatalf("switch MCL = %v, want 0 (same-router traffic)", mcl)
	}
}

func TestMinimalIntraGroup(t *testing.T) {
	d := mustNew(t, 2, 2, 2, 1)
	b := graph.New(d.Hosts())
	b.AddTraffic(0, 2, 6) // router 0 -> router 1, same group
	g := b.Build()
	loads, err := d.Loads(g, topology.Identity(d.Hosts()), Minimal)
	if err != nil {
		t.Fatal(err)
	}
	if loads[d.localLinkID(0, 0, 1)] != 6 {
		t.Fatalf("local link load = %v, want 6", loads[d.localLinkID(0, 0, 1)])
	}
	if loads[d.globalLinkID(0, 1)] != 0 {
		t.Fatal("intra-group flow used a global link")
	}
}

func TestMinimalInterGroup(t *testing.T) {
	d := mustNew(t, 2, 2, 2, 1)
	b := graph.New(d.Hosts())
	// Host 0 (group 0, local router 0) -> host 4 (group 1, local router 0).
	b.AddTraffic(0, 4, 8)
	g := b.Build()
	loads, err := d.Loads(g, topology.Identity(d.Hosts()), Minimal)
	if err != nil {
		t.Fatal(err)
	}
	if loads[d.globalLinkID(0, 1)] != 8 {
		t.Fatalf("global link load = %v, want 8", loads[d.globalLinkID(0, 1)])
	}
}

func TestValiantSpreadsGlobalLoad(t *testing.T) {
	d := mustNew(t, 4, 2, 1, 2)
	b := graph.New(d.Hosts())
	b.AddTraffic(0, 6, 12) // group 0 -> group 3
	g := b.Build()
	mclMin, err := d.GlobalMCL(g, topology.Identity(d.Hosts()), Minimal)
	if err != nil {
		t.Fatal(err)
	}
	mclVal, err := d.GlobalMCL(g, topology.Identity(d.Hosts()), Valiant)
	if err != nil {
		t.Fatal(err)
	}
	if mclVal >= mclMin {
		t.Fatalf("valiant global MCL %v should beat minimal %v for one adversarial flow", mclVal, mclMin)
	}
}

func TestVolumeConservationMinimal(t *testing.T) {
	d := mustNew(t, 3, 2, 2, 1)
	b := graph.New(d.Hosts())
	b.AddTraffic(0, 11, 5) // cross-group
	g := b.Build()
	loads, err := d.Loads(g, topology.Identity(d.Hosts()), Minimal)
	if err != nil {
		t.Fatal(err)
	}
	// Exactly one global link carries the 5.
	totalGlobal := 0.0
	for g1 := 0; g1 < 3; g1++ {
		for g2 := 0; g2 < 3; g2++ {
			totalGlobal += loads[d.globalLinkID(g1, g2)]
		}
	}
	if math.Abs(totalGlobal-5) > 1e-9 {
		t.Fatalf("global volume = %v, want 5", totalGlobal)
	}
}

func TestMapConfinesHeavyPairs(t *testing.T) {
	d := mustNew(t, 2, 2, 2, 1) // 8 hosts
	b := graph.New(8)
	pairs := [][2]int{{0, 7}, {1, 6}, {2, 5}, {3, 4}}
	for _, p := range pairs {
		b.AddTraffic(p[0], p[1], 100)
		b.AddTraffic(p[1], p[0], 100)
	}
	b.AddTraffic(0, 2, 1)
	g := b.Build()
	m, err := d.Map(g, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Heavy pairs must share routers.
	for _, p := range pairs {
		if d.RouterOf(m[p[0]]) != d.RouterOf(m[p[1]]) {
			t.Fatalf("pair %v split across routers: %v", p, m)
		}
	}
	opt, err := d.MCL(g, m, Minimal)
	if err != nil {
		t.Fatal(err)
	}
	id, err := d.MCL(g, topology.Identity(8), Minimal)
	if err != nil {
		t.Fatal(err)
	}
	if opt >= id {
		t.Fatalf("mapper MCL %v not better than identity %v", opt, id)
	}
}

func TestMapErrors(t *testing.T) {
	d := mustNew(t, 2, 2, 2, 1)
	if _, err := d.Map(graph.New(5).Build(), nil); err == nil {
		t.Fatal("size mismatch should fail")
	}
}

func TestLoadsMappingMismatch(t *testing.T) {
	d := mustNew(t, 2, 2, 2, 1)
	if _, err := d.Loads(graph.New(8).Build(), topology.Mapping{0}, Minimal); err == nil {
		t.Fatal("short mapping should fail")
	}
}

func TestRoutingString(t *testing.T) {
	if Minimal.String() != "minimal" || Valiant.String() != "valiant" {
		t.Fatal("routing names")
	}
}
