package netsim

import (
	"math"
	"testing"

	"rahtm/internal/graph"
	"rahtm/internal/topology"
)

func TestPhasedCommTimeSumsPhases(t *testing.T) {
	tp := topology.NewMesh(2)
	a, b := graph.New(2), graph.New(2)
	a.AddTraffic(0, 1, 2e9)
	b.AddTraffic(1, 0, 4e9)
	total, reports, err := PhasedCommTime(tp, []*graph.Comm{a.Build(), b.Build()}, topology.Identity(2), Model{})
	if err != nil {
		t.Fatal(err)
	}
	if len(reports) != 2 {
		t.Fatalf("reports = %d", len(reports))
	}
	// 1s + 2s.
	if math.Abs(total-3) > 1e-9 {
		t.Fatalf("total = %v, want 3", total)
	}
}

func TestPhasedExceedsUnionWhenHotspotsDiffer(t *testing.T) {
	// Phase A loads link 0->1, phase B loads 1->0: the union's MCL sees
	// them independently (max), but the phased time pays both in sequence.
	tp := topology.NewMesh(2)
	ab, bb, ub := graph.New(2), graph.New(2), graph.New(2)
	ab.AddTraffic(0, 1, 2e9)
	bb.AddTraffic(1, 0, 2e9)
	ub.AddTraffic(0, 1, 2e9)
	ub.AddTraffic(1, 0, 2e9)
	a, b, union := ab.Build(), bb.Build(), ub.Build()

	phased, _, err := PhasedCommTime(tp, []*graph.Comm{a, b}, topology.Identity(2), Model{})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := CommTime(tp, union, topology.Identity(2), Model{})
	if err != nil {
		t.Fatal(err)
	}
	if phased <= rep.Time {
		t.Fatalf("phased %v should exceed union %v (barriers serialize)", phased, rep.Time)
	}
}

func TestPhasedCommTimeError(t *testing.T) {
	tp := topology.NewMesh(2)
	g := graph.New(3).Build()
	if _, _, err := PhasedCommTime(tp, []*graph.Comm{g}, topology.Identity(2), Model{}); err == nil {
		t.Fatal("mismatched phase should fail")
	}
}
