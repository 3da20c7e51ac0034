package dragonfly

import (
	"strings"
	"testing"

	"rahtm/internal/graph"
	"rahtm/internal/topology"
)

func TestAccessorsAndString(t *testing.T) {
	d := mustNew(t, 3, 2, 4, 1)
	if d.RoutersPerGroup() != 2 || d.HostsPerRouter() != 4 {
		t.Fatal("accessors")
	}
	if !strings.Contains(d.String(), "dragonfly(g=3 a=2 p=4 h=1") {
		t.Fatalf("String = %q", d.String())
	}
}

func TestMinimalEntersViaGlobalLinkOwner(t *testing.T) {
	// Source router does not own the global link: a local hop precedes the
	// global hop; destination-side local hop follows when needed.
	d := mustNew(t, 3, 2, 1, 1) // 6 hosts, 1 host per router
	b := graph.New(6)
	// Host 1 = group 0 router 1; host 4 = group 2 router 0.
	// Group 0's link to group 2: peer index (2-0)-1 = 1 -> owner router 1.
	// Group 2's link to group 0: peer index (0-2+3)-1 = 0 -> owner router 0.
	b.AddTraffic(1, 4, 9)
	g := b.Build()
	loads, err := d.Loads(g, topology.Identity(6), Minimal)
	if err != nil {
		t.Fatal(err)
	}
	if loads[d.globalLinkID(0, 2)] != 9 {
		t.Fatalf("global load = %v", loads[d.globalLinkID(0, 2)])
	}
	// Source is the owner; no source-side local hop. Destination owner is
	// router 0 == destination router; no dst-side local hop either.
	for g1 := 0; g1 < 3; g1++ {
		for r1 := 0; r1 < 2; r1++ {
			for r2 := 0; r2 < 2; r2++ {
				if l := loads[d.localLinkID(g1, r1, r2)]; l != 0 {
					t.Fatalf("unexpected local load %v at g%d %d->%d", l, g1, r1, r2)
				}
			}
		}
	}
}

func TestMinimalLocalHopsBothSides(t *testing.T) {
	d := mustNew(t, 3, 2, 1, 1)
	b := graph.New(6)
	// Host 0 = group 0 router 0; link to group 1 owned by router 0
	// (peer index 0). Destination host 3 = group 1 router 1; group 1's
	// link to group 0 has peer index (0-1+3)-1 = 1 -> owner router 1... so
	// pick a flow with dst-side hop: host 0 -> host 2 (group 1 router 0):
	// dst owner router 1 != dst router 0 -> dst-side local hop.
	b.AddTraffic(0, 2, 4)
	g := b.Build()
	loads, err := d.Loads(g, topology.Identity(6), Minimal)
	if err != nil {
		t.Fatal(err)
	}
	if loads[d.globalLinkID(0, 1)] != 4 {
		t.Fatalf("global = %v", loads[d.globalLinkID(0, 1)])
	}
	if loads[d.localLinkID(1, 1, 0)] != 4 {
		t.Fatalf("dst local hop missing: %v", loads[d.localLinkID(1, 1, 0)])
	}
}

func TestGlobalMCLAndMCLDiffer(t *testing.T) {
	d := mustNew(t, 2, 2, 2, 1)
	b := graph.New(8)
	b.AddTraffic(0, 2, 50) // intra-group router hop only
	g := b.Build()
	mcl, err := d.MCL(g, topology.Identity(8), Minimal)
	if err != nil {
		t.Fatal(err)
	}
	gmcl, err := d.GlobalMCL(g, topology.Identity(8), Minimal)
	if err != nil {
		t.Fatal(err)
	}
	if mcl != 50 || gmcl != 0 {
		t.Fatalf("mcl=%v gmcl=%v, want 50/0", mcl, gmcl)
	}
}

func TestMCLMappingErrors(t *testing.T) {
	d := mustNew(t, 2, 2, 2, 1)
	if _, err := d.MCL(graph.New(8).Build(), topology.Mapping{0}, Minimal); err == nil {
		t.Fatal("short mapping")
	}
	if _, err := d.GlobalMCL(graph.New(8).Build(), topology.Mapping{0}, Minimal); err == nil {
		t.Fatal("short mapping")
	}
	b := graph.New(8)
	b.AddTraffic(0, 1, 1)
	g := b.Build()
	bad := topology.Mapping{99, 1, 2, 3, 4, 5, 6, 7}
	if _, err := d.Loads(g, bad, Minimal); err == nil {
		t.Fatal("out-of-range host")
	}
}

func TestMapWithGrid(t *testing.T) {
	d := mustNew(t, 2, 2, 4, 1) // 16 hosts
	b := graph.New(16)
	id := func(i, j int) int { return i*4 + j }
	for i := 0; i < 4; i++ {
		for j := 0; j < 4; j++ {
			b.AddTraffic(id(i, j), id(i, (j+1)%4), 3)
			b.AddTraffic(id(i, j), id((i+1)%4, j), 3)
		}
	}
	g := b.Build()
	m, err := d.Map(g, []int{4, 4})
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Validate(16, true); err != nil {
		t.Fatal(err)
	}
}
