package mcflow

import (
	"context"
	"math"
	"math/rand"
	"strings"
	"testing"

	"rahtm/internal/graph"
	"rahtm/internal/lp"
	"rahtm/internal/topology"
)

func TestRoutesMatchLoads(t *testing.T) {
	tp := topology.NewMesh(2, 2)
	b := graph.New(4)
	b.AddTraffic(0, 3, 4)
	b.AddTraffic(1, 2, 2)
	g := b.Build()
	res, rt, err := EvaluateWithRoutesCtx(context.Background(), tp, g, topology.Identity(4), lp.Options{})
	if err != nil {
		t.Fatal(err)
	}
	loads := rt.Loads()
	for ch := range loads {
		if math.Abs(loads[ch]-res.Loads[ch]) > 1e-6 {
			t.Fatalf("channel %d: table %v, result %v", ch, loads[ch], res.Loads[ch])
		}
	}
	if math.Abs(rt.MCL()-res.MCL) > 1e-6 {
		t.Fatalf("table MCL %v, result %v", rt.MCL(), res.MCL)
	}
}

func TestRoutesConserved(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 10; trial++ {
		tp := topology.NewTorus(4)
		b := graph.New(4)
		for e := 0; e < 4; e++ {
			b.AddTraffic(rng.Intn(4), rng.Intn(4), float64(1+rng.Intn(9)))
		}
		g := b.Build()
		_, rt, err := EvaluateWithRoutesCtx(context.Background(), tp, g, topology.Mapping(rng.Perm(4)), lp.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if err := rt.Conserved(1e-6); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
	}
}

func TestRoutesFractionsSumToOneAtSource(t *testing.T) {
	tp := topology.NewMesh(3)
	b := graph.New(3)
	b.AddTraffic(0, 2, 5)
	g := b.Build()
	_, rt, err := EvaluateWithRoutesCtx(context.Background(), tp, g, topology.Identity(3), lp.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(rt.Splits) != 1 {
		t.Fatalf("splits = %d", len(rt.Splits))
	}
	out := 0.0
	for ch, f := range rt.Splits[0].Fraction {
		node, _, _ := tp.DecodeChannel(ch)
		if node == 0 {
			out += f
		}
	}
	if math.Abs(out-1) > 1e-6 {
		t.Fatalf("source outflow fraction = %v", out)
	}
}

func TestRoutingTableString(t *testing.T) {
	tp := topology.NewMesh(2, 2)
	b := graph.New(4)
	b.AddTraffic(0, 3, 4)
	g := b.Build()
	_, rt, err := EvaluateWithRoutesCtx(context.Background(), tp, g, topology.Identity(4), lp.Options{})
	if err != nil {
		t.Fatal(err)
	}
	s := rt.String()
	if !strings.Contains(s, "flow 0->3") || !strings.Contains(s, "node 0") {
		t.Fatalf("table rendering:\n%s", s)
	}
}
