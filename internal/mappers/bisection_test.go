package mappers

import (
	"testing"

	"rahtm/internal/graph"
	"rahtm/internal/metrics"
	"rahtm/internal/topology"
	"rahtm/internal/workload"
)

func TestRecursiveBisectionBalanced(t *testing.T) {
	tp := topology.NewTorus(4, 4)
	w := workload.Halo2D(4, 4, 5)
	m := mustMap(t, RecursiveBisection{}, w, tp, 1)
	if err := m.Validate(tp.N(), true); err != nil {
		t.Fatal(err)
	}
}

func TestRecursiveBisectionConcentration(t *testing.T) {
	tp := topology.NewTorus(4, 4)
	w := workload.Halo2D(8, 8, 5)
	mustMap(t, RecursiveBisection{}, w, tp, 4) // mustMap checks capacity
}

func TestRecursiveBisectionKeepsCommunitiesTogether(t *testing.T) {
	// Recursive bisection's guarantee is cut quality: heavily connected
	// communities end up in the same sub-box. Four 4-task cliques with a
	// light inter-clique ring must beat random placement on hop-bytes.
	tp := topology.NewTorus(4, 4)
	b := graph.New(16)
	for grp := 0; grp < 4; grp++ {
		base := grp * 4
		for i := 0; i < 4; i++ {
			for j := 0; j < 4; j++ {
				if i != j {
					b.AddTraffic(base+i, base+j, 50)
				}
			}
		}
		b.AddTraffic(base, (base+4)%16, 1)
	}
	g := &workload.Workload{Name: "cliques", Graph: b.Build()}
	bis := mustMap(t, RecursiveBisection{}, g, tp, 1)
	rnd := mustMap(t, Random{Seed: 2}, g, tp, 1)
	hbB := metrics.HopBytes(tp, g.Graph, bis)
	hbR := metrics.HopBytes(tp, g.Graph, rnd)
	if hbB >= hbR {
		t.Fatalf("bisection hop-bytes %v not better than random %v", hbB, hbR)
	}
	// Every clique must land inside a 2x2 sub-box (pairwise distance <= 2).
	for grp := 0; grp < 4; grp++ {
		base := grp * 4
		for i := 0; i < 4; i++ {
			for j := i + 1; j < 4; j++ {
				if d := tp.MinDistance(bis[base+i], bis[base+j]); d > 2 {
					t.Fatalf("clique %d fragmented: distance %d", grp, d)
				}
			}
		}
	}
}

func TestRecursiveBisectionCutQuality(t *testing.T) {
	// Two cliques joined by one light edge must not be split down the
	// middle of a clique.
	tp := topology.NewTorus(2, 2)
	// Two heavy pairs: {0,1} and {2,3}, light cross edge.
	b := graph.New(4)
	b.AddTraffic(0, 1, 100)
	b.AddTraffic(2, 3, 100)
	b.AddTraffic(1, 2, 1)
	g := &workload.Workload{Name: "pairs", Graph: b.Build()}
	m := mustMap(t, RecursiveBisection{}, g, tp, 1)
	// The heavy pairs must land at distance 1 (same bisection half).
	if tp.MinDistance(m[0], m[1]) > 1 || tp.MinDistance(m[2], m[3]) > 1 {
		t.Fatalf("bisection split a heavy pair: %v", m)
	}
}

func TestRecursiveBisectionOddDimension(t *testing.T) {
	tp := topology.NewTorus(3, 2)
	w := workload.Halo2D(3, 2, 1)
	if _, err := (RecursiveBisection{}).MapProcs(w, tp, 1); err == nil {
		t.Fatal("odd dimension should fail cleanly")
	}
}
