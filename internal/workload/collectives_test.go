package workload

import (
	"bytes"
	"testing"

	"rahtm/internal/collective"
	"rahtm/internal/graph"
)

// TestCollectivesOnFrozenGraph adds collectives to a workload whose graph
// graph.Read returned: the result must equal the one built on the
// generator's graph, and the source must stay untouched.
func TestCollectivesOnFrozenGraph(t *testing.T) {
	built := Halo2D(4, 4, 10)
	var buf bytes.Buffer
	if _, err := built.Graph.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	g, err := graph.Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	read := &Workload{Name: built.Name, Grid: built.Grid, Graph: g, CommFraction: built.CommFraction}
	before := g.StructuralHash()
	for _, add := range []func(w *Workload) (*Workload, error){
		func(w *Workload) (*Workload, error) { return w.WithCollective(collective.OpAllReduceRing, 100) },
		func(w *Workload) (*Workload, error) { return w.WithRowCollectives(collective.OpAllReduceRing, 100) },
	} {
		want, err := add(built)
		if err != nil {
			t.Fatal(err)
		}
		got, err := add(read)
		if err != nil {
			t.Fatal(err)
		}
		if got.Graph.StructuralHash() != want.Graph.StructuralHash() || !got.Graph.Equal(want.Graph, 0) {
			t.Fatalf("%s: graph differs from the generated workload's result", got.Name)
		}
	}
	if g.StructuralHash() != before {
		t.Fatal("adding a collective changed the source graph")
	}
}
