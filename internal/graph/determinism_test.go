package graph

import (
	"math"
	"math/rand"
	"testing"
)

// denseGraph builds a graph with many non-commensurable float volumes whose
// edges are added in the given order. Volumes like 1/(i+3) make float
// summation order observable: if any aggregation followed the insertion
// order, two insertion orders would disagree in the low bits.
func denseGraph(n int, order []int) *Comm {
	b := New(n)
	for _, k := range order {
		s, d := k/n, k%n
		if s == d {
			continue
		}
		b.AddTraffic(s, d, 1.0/float64(k+3))
	}
	return b.Build()
}

// TestAggregationsBitIdentical: every float-aggregating method must return
// bit-identical results regardless of insertion order and across repeated
// runs.
func TestAggregationsBitIdentical(t *testing.T) {
	const n = 24
	fwd := make([]int, n*n)
	for i := range fwd {
		fwd[i] = i
	}
	rev := make([]int, n*n)
	for i := range rev {
		rev[i] = n*n - 1 - i
	}
	shuf := append([]int(nil), fwd...)
	rand.New(rand.NewSource(7)).Shuffle(len(shuf), func(i, j int) { shuf[i], shuf[j] = shuf[j], shuf[i] })

	a := denseGraph(n, fwd)
	b := denseGraph(n, rev)
	c := denseGraph(n, shuf)

	assign := make([]int, n)
	for i := range assign {
		assign[i] = i % 5
	}

	bits := func(g *Comm) []uint64 {
		var out []uint64
		out = append(out, math.Float64bits(g.TotalVolume()))
		for s := 0; s < n; s++ {
			out = append(out, math.Float64bits(g.OutVolume(s)))
		}
		coarse, intra := g.Coarsen(assign, 5)
		out = append(out, math.Float64bits(intra))
		for _, f := range coarse.Flows() {
			out = append(out, uint64(f.Src), uint64(f.Dst), math.Float64bits(f.Vol))
		}
		for _, f := range g.Scale(1.0 / 3.0).Flows() {
			out = append(out, uint64(f.Src), uint64(f.Dst), math.Float64bits(f.Vol))
		}
		return out
	}

	ref := bits(a)
	for run := 0; run < 5; run++ {
		for name, g := range map[string]*Comm{"forward": a, "reverse": b, "shuffled": c} {
			got := bits(g)
			if len(got) != len(ref) {
				t.Fatalf("%s run %d: %d words, want %d", name, run, len(got), len(ref))
			}
			for i := range ref {
				if got[i] != ref[i] {
					t.Fatalf("%s run %d: word %d = %#x, want %#x (aggregation order leaked)",
						name, run, i, got[i], ref[i])
				}
			}
		}
	}
}

// TestFlowsOrderStableAcrossRuns pins the edge enumeration order itself:
// repeated calls on the same graph yield identical sequences, with every
// row in ascending order.
func TestFlowsOrderStableAcrossRuns(t *testing.T) {
	g := denseGraph(16, func() []int {
		o := make([]int, 256)
		for i := range o {
			o[i] = i
		}
		rand.New(rand.NewSource(11)).Shuffle(len(o), func(i, j int) { o[i], o[j] = o[j], o[i] })
		return o
	}())
	first := g.Flows()
	for run := 0; run < 10; run++ {
		again := g.Flows()
		if len(again) != len(first) {
			t.Fatalf("run %d: %d flows, want %d", run, len(again), len(first))
		}
		for i := range first {
			if again[i] != first[i] {
				t.Fatalf("run %d: Flows[%d] = %+v, want %+v", run, i, again[i], first[i])
			}
		}
		for s := 0; s < g.N(); s++ {
			nb := g.Neighbors(s)
			for i := 1; i < len(nb); i++ {
				if nb[i-1] >= nb[i] {
					t.Fatalf("run %d: Neighbors(%d) not sorted: %v", run, s, nb)
				}
			}
		}
	}
}
