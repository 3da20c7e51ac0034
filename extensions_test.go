package rahtm

import (
	"context"
	"strings"
	"testing"
)

func TestAddCollectiveFacade(t *testing.T) {
	b := NewGraph(8)
	if err := AddCollective(b, AllReduceRecursiveDoubling, nil, 100); err != nil {
		t.Fatal(err)
	}
	if g := b.Build(); g.TotalVolume() != 8*3*100 { // 8 procs x log2(8) stages x msg
		t.Fatalf("volume = %v", g.TotalVolume())
	}
	if err := AddCollective(b, "bogus", nil, 1); err == nil {
		t.Fatal("unknown op should fail")
	}
}

func TestCollectiveOpsListed(t *testing.T) {
	ops := CollectiveOps()
	if len(ops) < 8 {
		t.Fatalf("only %d collective ops", len(ops))
	}
}

func TestAllReduceJobMappable(t *testing.T) {
	tp := NewTorus(4, 4)
	w, err := AllReduceJob(16, 1000, AllReduceRing)
	if err != nil {
		t.Fatal(err)
	}
	m, err := Mapper{}.MapProcs(w, tp, 1)
	if err != nil {
		t.Fatal(err)
	}
	// A ring embeds with low contention; RAHTM should not lose to random.
	rnd, err := NewRandom(3).MapProcs(w, tp, 1)
	if err != nil {
		t.Fatal(err)
	}
	if MCL(tp, w.Graph, m) > MCL(tp, w.Graph, rnd) {
		t.Fatalf("RAHTM %v worse than random %v on a ring", MCL(tp, w.Graph, m), MCL(tp, w.Graph, rnd))
	}
}

func TestParseProfileFacade(t *testing.T) {
	in := "procs 4\np2p 0 1 10\ncoll allreduce-ring 8 all\n"
	p, err := ParseProfile(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	g, err := p.Graph()
	if err != nil {
		t.Fatal(err)
	}
	if g.N() != 4 || g.Traffic(0, 1) <= 10 {
		t.Fatalf("profile graph wrong: N=%d t01=%v", g.N(), g.Traffic(0, 1))
	}
	back := ProfileFromGraph(g)
	if back.Procs != 4 {
		t.Fatal("round trip lost process count")
	}
}

func TestOptimalSplitMCLFacade(t *testing.T) {
	tp := NewMesh(2, 2)
	b := NewGraph(4)
	b.AddTraffic(0, 3, 4)
	g := b.Build()
	mcl, rt, err := OptimalSplitMCLCtx(context.Background(), tp, g, Identity(4))
	if err != nil {
		t.Fatal(err)
	}
	// The diagonal flow splits 2/2 optimally.
	if mcl > 2+1e-6 {
		t.Fatalf("optimal MCL = %v, want 2", mcl)
	}
	if err := rt.Conserved(1e-6); err != nil {
		t.Fatal(err)
	}
	// The LP never does worse than the uniform split.
	if uniform := MCL(tp, g, Identity(4)); mcl > uniform+1e-9 {
		t.Fatalf("LP %v worse than uniform %v", mcl, uniform)
	}
}

func TestPacketSimulateFacadeAgreesWithMCLOrdering(t *testing.T) {
	tp := NewTorus(4, 4)
	w := Halo2D(4, 4, 40)
	good := Identity(16)
	bad, err := NewRandom(11).MapProcs(w, tp, 1)
	if err != nil {
		t.Fatal(err)
	}
	if MCL(tp, w.Graph, bad) <= MCL(tp, w.Graph, good) {
		t.Skip("random mapping happened to be good; nothing to validate")
	}
	cfg := PacketSimConfig{Seed: 1, InjectionRate: 64}
	rg, err := PacketSimulateCtx(context.Background(), tp, w.Graph, good, cfg)
	if err != nil {
		t.Fatal(err)
	}
	rb, err := PacketSimulateCtx(context.Background(), tp, w.Graph, bad, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rg.Cycles >= rb.Cycles {
		t.Fatalf("packet sim contradicts MCL: good %d cycles, bad %d", rg.Cycles, rb.Cycles)
	}
}

func TestWorkloadWithCollective(t *testing.T) {
	w, err := CG(16)
	if err != nil {
		t.Fatal(err)
	}
	w2, err := w.WithCollective(AllReduceRecursiveDoubling, 50)
	if err != nil {
		t.Fatal(err)
	}
	if w2.Graph.TotalVolume() <= w.Graph.TotalVolume() {
		t.Fatal("collective added no volume")
	}
	if w2.Name == w.Name {
		t.Fatal("derived workload should be renamed")
	}
	// Row collectives stay within rows.
	w3, err := w.WithRowCollectives(AllReduceRing, 10)
	if err != nil {
		t.Fatal(err)
	}
	// Ring all-reduce within row 0 adds traffic 0->1 but nothing 0->4.
	if w3.Graph.Traffic(0, 4) != w.Graph.Traffic(0, 4) {
		t.Fatal("row collective leaked across rows")
	}
}
