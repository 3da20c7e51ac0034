package rahtm

import (
	"context"
	"math"
	"slices"
	"strings"
	"testing"
)

func TestMapperImplementsProcMapper(t *testing.T) {
	var _ ProcMapper = Mapper{}
	if (Mapper{}).Name() != "RAHTM" {
		t.Fatal("bad name")
	}
}

func TestMapperEndToEnd(t *testing.T) {
	tp := NewTorus(4, 4)
	w := Halo2D(8, 8, 10)
	m, err := Mapper{}.MapProcs(w, tp, 4)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Validate(tp.N(), false); err != nil {
		t.Fatal(err)
	}
	// RAHTM achieves the ideal blocked embedding for a matched halo: every
	// node-level flow at distance 1.
	rep := Measure(tp, w.Graph, m)
	if rep.Dilation != 1 {
		t.Fatalf("dilation = %d, want 1 (report %s)", rep.Dilation, rep)
	}
}

func TestPipelineStatsExposed(t *testing.T) {
	tp := NewTorus(4, 4)
	w := Halo2D(4, 4, 1)
	res, err := pipelineResult(context.Background(), Mapper{}, w, tp, 1)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Subproblems == 0 || res.MCL <= 0 {
		t.Fatalf("stats = %+v MCL = %v", res.Stats, res.MCL)
	}
}

func TestStandardPermutationSpecs(t *testing.T) {
	tp := NewTorus(4, 4, 4, 4, 2)
	ps := StandardPermutations(tp)
	want := []string{"ABCDET", "TABCDE", "ACEBDT"}
	if len(ps) != len(want) {
		t.Fatalf("got %d permutations", len(ps))
	}
	for i, p := range ps {
		if p.Name() != want[i] {
			t.Fatalf("permutation %d = %q, want %q (the paper's §IV set)", i, p.Name(), want[i])
		}
	}
}

func TestStandardMappersOrder(t *testing.T) {
	// On a 2-D torus the interleaved permutation (ABT) duplicates the
	// default, so StandardPermutations dedupes it: 2 permutations +
	// Hilbert + RHT + RAHTM.
	tp := NewTorus(4, 4)
	ms := StandardMappers(tp)
	if len(ms) != 5 {
		t.Fatalf("got %d mappers, want 5", len(ms))
	}
	seen := map[string]bool{}
	for _, m := range ms {
		if seen[m.Name()] {
			t.Fatalf("duplicate mapper %q", m.Name())
		}
		seen[m.Name()] = true
	}
	if ms[0].Name() != "ABT" {
		t.Fatalf("baseline = %q, want the default mapping first", ms[0].Name())
	}
	if ms[len(ms)-1].Name() != "RAHTM" {
		t.Fatal("RAHTM must be last")
	}
}

func TestFacadeMetricsAgree(t *testing.T) {
	tp := NewTorus(4, 4)
	w := Halo2D(4, 4, 2)
	m := Identity(16)
	rep := Measure(tp, w.Graph, m)
	if math.Abs(rep.MCL-MCL(tp, w.Graph, m)) > 1e-12 {
		t.Fatal("Measure and MCL disagree")
	}
	if math.Abs(rep.HopBytes-HopBytes(tp, w.Graph, m)) > 1e-12 {
		t.Fatal("Measure and HopBytes disagree")
	}
}

func TestReadGraphFacade(t *testing.T) {
	g, err := ReadGraph(strings.NewReader("comm 3\n0 1 2.5\n"))
	if err != nil {
		t.Fatal(err)
	}
	if g.Traffic(0, 1) != 2.5 {
		t.Fatal("parse mismatch")
	}
}

func TestMapperNonPowerOfTwoTorus(t *testing.T) {
	// §III-B partitioning: a 6x4 torus handled transparently.
	tp := NewTorus(6, 4)
	w := Halo2D(6, 4, 5)
	m, err := Mapper{}.MapProcs(w, tp, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Validate(tp.N(), true); err != nil {
		t.Fatal(err)
	}
	rnd, err := NewRandom(4).MapProcs(w, tp, 1)
	if err != nil {
		t.Fatal(err)
	}
	if MCL(tp, w.Graph, m) > MCL(tp, w.Graph, rnd) {
		t.Fatalf("partitioned RAHTM %v worse than random %v",
			MCL(tp, w.Graph, m), MCL(tp, w.Graph, rnd))
	}
}

func TestMapperCustomConfig(t *testing.T) {
	tp := NewTorus(4, 4)
	w := Halo2D(4, 4, 1)
	m := Mapper{}
	m.Merge.BeamWidth = 2
	m.Leaf.Method = LeafExhaustive
	m.DisableSiblingReuse = true
	mp, err := m.MapProcs(w, tp, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := mp.Validate(tp.N(), true); err != nil {
		t.Fatal(err)
	}
}

// TestMapperTopologyFieldsIgnored pins that the pipeline sets the
// evaluation topology of every leaf solve and merge itself: a caller's
// Merge.Torus, Merge.Topology or Leaf.Torus returns the zero config's
// mapping and MCL bits.
func TestMapperTopologyFieldsIgnored(t *testing.T) {
	tp := NewTorus(8, 8)
	w := RandomNeighbors(256, 4, 10, 3)
	solve := func(m Mapper) *Result {
		t.Helper()
		m.Parallelism = 1
		res, err := Solve(context.Background(), Request{Work: w, Torus: tp, Conc: 4, Config: &m})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	want := solve(Mapper{})
	var mergeTorus, mergeTopo, leafTorus Mapper
	mergeTorus.Merge.Torus = true
	mergeTopo.Merge.Topology = tp
	leafTorus.Leaf.Torus = true
	for name, m := range map[string]Mapper{"Merge.Torus": mergeTorus, "Merge.Topology": mergeTopo, "Leaf.Torus": leafTorus} {
		got := solve(m)
		if math.Float64bits(got.MCL) != math.Float64bits(want.MCL) || !slices.Equal(got.Mapping, want.Mapping) {
			t.Errorf("%s: MCL %v (mapping equal: %v), zero config %v", name, got.MCL, slices.Equal(got.Mapping, want.Mapping), want.MCL)
		}
	}
}

// pipelineResult runs m's pipeline through Solve and returns its full
// output, the form the pipeline tests inspect.
func pipelineResult(ctx context.Context, m Mapper, w *Workload, t *Torus, conc int) (*PipelineResult, error) {
	res, err := Solve(ctx, Request{Work: w, Torus: t, Conc: conc, Config: &m})
	if err != nil {
		return nil, err
	}
	return res.Detail, nil
}
