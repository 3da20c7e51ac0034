package metrics

import (
	"math"
	"strings"
	"testing"

	"rahtm/internal/graph"
	"rahtm/internal/routing"
	"rahtm/internal/topology"
)

func TestHopBytes(t *testing.T) {
	tp := topology.NewMesh(4)
	b := graph.New(4)
	b.AddTraffic(0, 3, 2) // distance 3
	b.AddTraffic(1, 2, 5) // distance 1
	g := b.Build()
	hb := HopBytes(tp, g, topology.Identity(4))
	if hb != 2*3+5*1 {
		t.Fatalf("hop-bytes = %v, want 11", hb)
	}
}

func TestHopBytesColocated(t *testing.T) {
	tp := topology.NewMesh(2)
	b := graph.New(2)
	b.AddTraffic(0, 1, 100)
	g := b.Build()
	if hb := HopBytes(tp, g, topology.Mapping{0, 0}); hb != 0 {
		t.Fatalf("co-located hop-bytes = %v", hb)
	}
}

func TestDilation(t *testing.T) {
	tp := topology.NewTorus(8)
	b := graph.New(8)
	b.AddTraffic(0, 4, 1) // distance 4 on the ring
	b.AddTraffic(0, 1, 9)
	g := b.Build()
	if d := Dilation(tp, g, topology.Identity(8)); d != 4 {
		t.Fatalf("dilation = %d, want 4", d)
	}
	if d := Dilation(tp, graph.New(8).Build(), topology.Identity(8)); d != 0 {
		t.Fatalf("empty dilation = %d", d)
	}
}

func TestAvgDilation(t *testing.T) {
	tp := topology.NewMesh(4)
	b := graph.New(4)
	b.AddTraffic(0, 1, 1) // dist 1
	b.AddTraffic(0, 3, 1) // dist 3
	g := b.Build()
	if ad := AvgDilation(tp, g, topology.Identity(4)); math.Abs(ad-2) > 1e-12 {
		t.Fatalf("avg dilation = %v, want 2", ad)
	}
	if ad := AvgDilation(tp, graph.New(4).Build(), topology.Identity(4)); ad != 0 {
		t.Fatalf("empty avg dilation = %v", ad)
	}
}

func TestMeasureConsistency(t *testing.T) {
	tp := topology.NewTorus(4, 4)
	b := graph.New(16)
	for i := 0; i < 16; i++ {
		b.AddTraffic(i, (i+3)%16, float64(1+i%4))
	}
	g := b.Build()
	m := topology.Identity(16)
	rep := Measure(tp, g, m, routing.MinimalAdaptive{})
	direct := routing.MaxChannelLoad(tp, g, m, routing.MinimalAdaptive{})
	if math.Abs(rep.MCL-direct) > 1e-12 {
		t.Fatalf("report MCL %v != direct %v", rep.MCL, direct)
	}
	if rep.P99Load > rep.MCL+1e-12 {
		t.Fatal("p99 above max")
	}
	if rep.Imbalance < 1 {
		t.Fatalf("imbalance = %v, want >= 1", rep.Imbalance)
	}
	if rep.HopBytes <= 0 || rep.Dilation <= 0 {
		t.Fatalf("report = %+v", rep)
	}
	s := rep.String()
	for _, want := range []string{"MCL=", "hop-bytes=", "dilation="} {
		if !strings.Contains(s, want) {
			t.Fatalf("String() = %q missing %q", s, want)
		}
	}
}

func TestMeasureEmptyGraph(t *testing.T) {
	tp := topology.NewMesh(2, 2)
	rep := Measure(tp, graph.New(4).Build(), topology.Identity(4), routing.MinimalAdaptive{})
	if rep.MCL != 0 || rep.HopBytes != 0 || rep.Imbalance != 0 {
		t.Fatalf("empty report = %+v", rep)
	}
}

// Figure 1 numerically: the hop-bytes metric prefers the adjacent placement
// while MCL prefers the diagonal one — the paper's core motivating claim.
func TestHopBytesAndMCLDisagreeOnFigure1(t *testing.T) {
	tp := topology.NewMesh(2, 2)
	b := graph.New(4)
	b.AddTraffic(0, 1, 10)
	b.AddTraffic(1, 2, 1)
	b.AddTraffic(2, 3, 1)
	b.AddTraffic(3, 0, 1)
	g := b.Build()
	adjacent := topology.Mapping{0, 1, 3, 2} // heavy pair adjacent
	diagonal := topology.Mapping{0, 3, 1, 2} // heavy pair diagonal

	hbAdj := HopBytes(tp, g, adjacent)
	hbDiag := HopBytes(tp, g, diagonal)
	if hbAdj >= hbDiag {
		t.Fatalf("hop-bytes should prefer adjacent: %v vs %v", hbAdj, hbDiag)
	}
	mclAdj := routing.MaxChannelLoad(tp, g, adjacent, routing.MinimalAdaptive{})
	mclDiag := routing.MaxChannelLoad(tp, g, diagonal, routing.MinimalAdaptive{})
	if mclDiag >= mclAdj {
		t.Fatalf("MCL should prefer diagonal: %v vs %v", mclDiag, mclAdj)
	}
}
