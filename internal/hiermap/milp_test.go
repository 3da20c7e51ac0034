package hiermap

import (
	"context"
	"math"
	"testing"
	"time"

	"rahtm/internal/graph"
	"rahtm/internal/routing"
	"rahtm/internal/telemetry"
	"rahtm/internal/topology"
)

func TestMILPTrivialTwoNodeShape(t *testing.T) {
	b := graph.New(2)
	b.AddTraffic(0, 1, 6)
	g := b.Build()
	res, err := MapCtx(context.Background(), g, topology.NewMesh(2, 1), Config{Method: MILP, MILPDeadline: time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Proved {
		t.Fatal("trivial MILP should prove optimality")
	}
	if math.Abs(res.MCL-6) > 1e-9 {
		t.Fatalf("MCL = %v, want 6", res.MCL)
	}
}

func TestMILPTorusCapacityHalvesLoad(t *testing.T) {
	// The paper's root-level trick: a 2-ary torus is a 2-ary mesh with
	// double-wide links. Result.MCL reports the uniform-split model on the
	// torus (split across the pair), i.e. half the mesh load.
	b := graph.New(2)
	b.AddTraffic(0, 1, 8)
	g := b.Build()
	mesh, err := MapCtx(context.Background(), g, topology.NewMesh(2, 1), Config{Method: MILP, MILPDeadline: time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	torus, err := MapCtx(context.Background(), g, topology.NewTorus(2, 1), Config{Method: MILP, MILPDeadline: time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(mesh.MCL-8) > 1e-9 || math.Abs(torus.MCL-4) > 1e-9 {
		t.Fatalf("mesh MCL %v (want 8), torus MCL %v (want 4)", mesh.MCL, torus.MCL)
	}
}

func TestMILPEmptyGraph(t *testing.T) {
	// No flows: any placement is optimal with MCL 0.
	g := graph.New(4).Build()
	res, err := MapCtx(context.Background(), g, topology.NewMesh(2, 2), Config{Method: MILP, MILPDeadline: time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	if res.MCL != 0 {
		t.Fatalf("MCL = %v, want 0", res.MCL)
	}
	if err := res.Mapping.Validate(4, true); err != nil {
		t.Fatal(err)
	}
}

func TestMILPDeadlineStillReturnsMapping(t *testing.T) {
	// An aggressive deadline must still yield a feasible placement (from
	// the annealing incumbent), just possibly unproved.
	b := graph.New(4)
	for i := 0; i < 4; i++ {
		for j := 0; j < 4; j++ {
			if i != j {
				b.AddTraffic(i, j, float64(1+(i*3+j)%5))
			}
		}
	}
	g := b.Build()
	res, err := MapCtx(context.Background(), g, topology.NewMesh(2, 2), Config{Method: MILP, MILPDeadline: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Mapping.Validate(4, true); err != nil {
		t.Fatal(err)
	}
}

func TestMILPSymmetryPinRespected(t *testing.T) {
	// The symmetry-breaking constraint pins cluster 0 to vertex 0; the
	// solution must honor it (any optimum can be rotated to this form).
	b := graph.New(4)
	b.AddTraffic(2, 3, 10)
	b.AddTraffic(0, 1, 1)
	g := b.Build()
	res, err := MapCtx(context.Background(), g, topology.NewMesh(2, 2), Config{Method: MILP, MILPDeadline: time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	if res.Mapping[0] != 0 {
		t.Fatalf("cluster 0 at vertex %d, pin requires 0", res.Mapping[0])
	}
	// And the heavy pair still lands on a diagonal.
	mesh := topology.NewMesh(2, 2)
	if mesh.MinDistance(res.Mapping[2], res.Mapping[3]) != 2 {
		t.Fatalf("heavy pair not diagonal: %v", res.Mapping)
	}
}

// TestMILPHaloLeafStopsAtBound checks that the MILP does not branch when
// its annealed incumbent is at the per-node bound: the 4x4 halo leaf comes
// back at MCL 4, proved, with no branch-and-bound node and no model built.
func TestMILPHaloLeafStopsAtBound(t *testing.T) {
	scope := telemetry.NewScope("milp-halo-leaf")
	ctx := telemetry.WithScope(context.Background(), scope)
	res, err := MapCtx(ctx, haloLeaf(4, 4, 4), topology.NewMesh(2, 2, 2, 2), Config{Method: MILP})
	if err != nil {
		t.Fatal(err)
	}
	if res.MCL != 4 || !res.Proved || res.Degraded {
		t.Fatalf("MCL %v, Proved %v, Degraded %v; want 4, true, false", res.MCL, res.Proved, res.Degraded)
	}
	for _, name := range []string{telemetry.CtrMILPNodes, telemetry.CtrLPPivots} {
		if v := scope.Counter(name).Value(); v != 0 {
			t.Fatalf("%s = %d, want 0", name, v)
		}
	}
}

// TestMILPDeadlineBoundsRelaxation checks that MILPDeadline bounds a
// single LP relaxation: a 16-node ring, whose bound no placement meets,
// has a root relaxation that runs for minutes, and the solve must still
// come back within seconds, with a valid mapping that claims no proof.
func TestMILPDeadlineBoundsRelaxation(t *testing.T) {
	b := graph.New(16)
	for i := 0; i < 16; i++ {
		b.AddTraffic(i, (i+1)%16, 2)
	}
	g := b.Build()
	cube := topology.NewMesh(2, 2, 2, 2)
	start := time.Now()
	res, err := MapCtx(context.Background(), g, cube, Config{Method: MILP, MILPDeadline: 500 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed > 10*time.Second {
		t.Fatalf("took %v under a 500ms budget", elapsed)
	}
	if res.Proved {
		t.Fatalf("proved at MCL %v after a cut relaxation", res.MCL)
	}
	if err := res.Mapping.Validate(16, true); err != nil {
		t.Fatal(err)
	}
	if got := routing.MaxChannelLoad(cube, g, res.Mapping, routing.MinimalAdaptive{}); got != res.MCL {
		t.Fatalf("Result.MCL %v, evaluated %v", res.MCL, got)
	}
}
