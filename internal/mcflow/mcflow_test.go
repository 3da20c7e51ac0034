package mcflow

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"rahtm/internal/graph"
	"rahtm/internal/lp"
	"rahtm/internal/routing"
	"rahtm/internal/topology"
)

func TestSingleFlowLine(t *testing.T) {
	tp := topology.NewMesh(3)
	b := graph.New(3)
	b.AddTraffic(0, 2, 4)
	g := b.Build()
	res, _, err := EvaluateWithRoutesCtx(context.Background(), tp, g, topology.Identity(3), lp.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.MCL-4) > 1e-6 {
		t.Fatalf("MCL = %v, want 4 (single path)", res.MCL)
	}
}

func TestLPBeatsOrMatchesUniformSplit(t *testing.T) {
	// Two diagonal flows sharing a corner on a 2x2 mesh: the uniform split
	// stacks 0.5+0.5 on shared links; the LP can route them disjointly.
	tp := topology.NewMesh(2, 2)
	b := graph.New(4)
	b.AddTraffic(0, 3, 1) // (0,0)->(1,1)
	b.AddTraffic(1, 2, 1) // (0,1)->(1,0)
	g := b.Build()
	m := topology.Identity(4)
	uniform := routing.MaxChannelLoad(tp, g, m, routing.MinimalAdaptive{})
	res, _, err := EvaluateWithRoutesCtx(context.Background(), tp, g, m, lp.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.MCL > uniform+1e-9 {
		t.Fatalf("LP MCL %v worse than uniform %v", res.MCL, uniform)
	}
	// Optimal here: each flow picks one of its two paths so that no link is
	// shared; every used link carries exactly 1... but both flows must cross
	// the 2x2 somehow: flow A can use (0,0)->(0,1)->(1,1)? That collides
	// with B's nodes, not links. A disjoint assignment exists with MCL 1.
	if math.Abs(res.MCL-1) > 1e-6 {
		t.Fatalf("LP MCL = %v, want 1", res.MCL)
	}
}

func TestColocatedTasksFree(t *testing.T) {
	tp := topology.NewMesh(2)
	b := graph.New(4)
	b.AddTraffic(0, 1, 100)
	b.AddTraffic(2, 3, 1)
	g := b.Build()
	m := topology.Mapping{0, 0, 0, 1} // heavy pair shares node 0
	res, _, err := EvaluateWithRoutesCtx(context.Background(), tp, g, m, lp.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.MCL-1) > 1e-6 {
		t.Fatalf("MCL = %v, want 1", res.MCL)
	}
}

func TestAggregationAcrossTasks(t *testing.T) {
	// Two tasks on node 0 each send 1 to node 1: aggregate flow 2.
	tp := topology.NewMesh(2)
	b := graph.New(3)
	b.AddTraffic(0, 2, 1)
	b.AddTraffic(1, 2, 1)
	g := b.Build()
	m := topology.Mapping{0, 0, 1}
	res, _, err := EvaluateWithRoutesCtx(context.Background(), tp, g, m, lp.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.MCL-2) > 1e-6 {
		t.Fatalf("MCL = %v, want 2", res.MCL)
	}
}

func TestMappingLengthMismatch(t *testing.T) {
	tp := topology.NewMesh(2)
	g := graph.New(3).Build()
	if _, _, err := EvaluateWithRoutesCtx(context.Background(), tp, g, topology.Mapping{0, 1}, lp.Options{}); err == nil {
		t.Fatal("expected error for short mapping")
	}
}

func TestTorusTieUsesBothDirections(t *testing.T) {
	// 4-ring with two antipodal flows 0->2 and 1->3: LP can send each along
	// opposite arcs for MCL 1; uniform split also achieves max 1 here
	// (each direction carries 0.5+0.5). Check LP result is exactly 1.
	tp := topology.NewTorus(4)
	b := graph.New(4)
	b.AddTraffic(0, 2, 1)
	b.AddTraffic(1, 3, 1)
	g := b.Build()
	res, _, err := EvaluateWithRoutesCtx(context.Background(), tp, g, topology.Identity(4), lp.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.MCL-1) > 1e-6 {
		t.Fatalf("MCL = %v, want 1", res.MCL)
	}
}

// Property: the LP optimum never exceeds the uniform-split MCL and never
// goes below the trivial lower bound max_flow(vol * dist / #links).
func TestQuickLPBoundsAgainstUniform(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 25; trial++ {
		var tp *topology.Torus
		if rng.Intn(2) == 0 {
			tp = topology.NewMesh(2, 2)
		} else {
			tp = topology.NewTorus(2, 2)
		}
		n := tp.N()
		b := graph.New(n)
		for e := 0; e < 4; e++ {
			b.AddTraffic(rng.Intn(n), rng.Intn(n), float64(1+rng.Intn(9)))
		}
		g := b.Build()
		m := topology.Mapping(rng.Perm(n))
		uniform := routing.MaxChannelLoad(tp, g, m, routing.MinimalAdaptive{})
		res, _, err := EvaluateWithRoutesCtx(context.Background(), tp, g, m, lp.Options{})
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if res.MCL > uniform+1e-6 {
			t.Fatalf("trial %d: LP %v > uniform %v", trial, res.MCL, uniform)
		}
		// Weak lower bound: total network demand / total links.
		demand := 0.0
		for _, f := range g.Flows() {
			if m[f.Src] != m[f.Dst] {
				demand += f.Vol * float64(tp.MinDistance(m[f.Src], m[f.Dst]))
			}
		}
		lb := demand / float64(tp.NumLinks())
		if res.MCL < lb-1e-6 {
			t.Fatalf("trial %d: LP %v below bound %v", trial, res.MCL, lb)
		}
	}
}
