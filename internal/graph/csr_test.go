package graph

import (
	"bytes"
	"math"
	"math/rand"
	"strings"
	"testing"
)

// randomComm builds a reproducible sparse builder graph: n vertices, about
// deg out-edges each, volumes spread over many binades so order-sensitive
// float accumulation differences cannot hide.
func randomComm(n, deg int, seed int64) *Comm {
	rng := rand.New(rand.NewSource(seed))
	g := New(n)
	for s := 0; s < n; s++ {
		for k := 0; k < deg; k++ {
			d := rng.Intn(n)
			g.AddTraffic(s, d, math.Ldexp(1+rng.Float64(), rng.Intn(24)-12))
		}
	}
	return g
}

// requireSameComm fails unless a and b expose bit-identical structure and
// volumes through the public accessors.
func requireSameComm(t *testing.T, ctxt string, a, b *Comm) {
	t.Helper()
	if a.N() != b.N() {
		t.Fatalf("%s: N %d != %d", ctxt, a.N(), b.N())
	}
	if a.NumEdges() != b.NumEdges() {
		t.Fatalf("%s: NumEdges %d != %d", ctxt, a.NumEdges(), b.NumEdges())
	}
	fa, fb := a.Flows(), b.Flows()
	for i := range fa {
		if fa[i].Src != fb[i].Src || fa[i].Dst != fb[i].Dst {
			t.Fatalf("%s: flow %d structure %v != %v", ctxt, i, fa[i], fb[i])
		}
		if math.Float64bits(fa[i].Vol) != math.Float64bits(fb[i].Vol) {
			t.Fatalf("%s: flow %d volume bits %x != %x (%v vs %v)",
				ctxt, i, math.Float64bits(fa[i].Vol), math.Float64bits(fb[i].Vol), fa[i].Vol, fb[i].Vol)
		}
	}
	if math.Float64bits(a.TotalVolume()) != math.Float64bits(b.TotalVolume()) {
		t.Fatalf("%s: TotalVolume %v != %v", ctxt, a.TotalVolume(), b.TotalVolume())
	}
	for s := 0; s < a.N(); s++ {
		if math.Float64bits(a.OutVolume(s)) != math.Float64bits(b.OutVolume(s)) {
			t.Fatalf("%s: OutVolume(%d) %v != %v", ctxt, s, a.OutVolume(s), b.OutVolume(s))
		}
	}
	if a.StructuralHash() != b.StructuralHash() {
		t.Fatalf("%s: StructuralHash mismatch", ctxt)
	}
}

// TestFrozenBitIdenticalToBuilder pins the core CSR contract: every accessor
// and derived operation returns bit-identical results on the frozen form and
// on the builder it was compiled from.
func TestFrozenBitIdenticalToBuilder(t *testing.T) {
	for _, n := range []int{1, 7, 64, 200} {
		b := randomComm(n, 6, int64(n))
		f := b.Clone().Freeze()
		requireSameComm(t, "base", b, f)

		for s := 0; s < n; s++ {
			for _, d := range b.Neighbors(s) {
				if math.Float64bits(b.Traffic(s, d)) != math.Float64bits(f.Traffic(s, d)) {
					t.Fatalf("Traffic(%d,%d) differs", s, d)
				}
			}
			if math.Float64bits(b.Traffic(s, (s+1)%n)) != math.Float64bits(f.Traffic(s, (s+1)%n)) {
				t.Fatalf("Traffic miss lookup differs at %d", s)
			}
			if b.Degree(s) != f.Degree(s) {
				t.Fatalf("Degree(%d) differs", s)
			}
		}

		assign := make([]int, n)
		parts := n/3 + 1
		for i := range assign {
			assign[i] = (i * 7) % parts
		}
		cb, ib := b.Coarsen(assign, parts)
		cf, if_ := f.Coarsen(assign, parts)
		if math.Float64bits(ib) != math.Float64bits(if_) {
			t.Fatalf("Coarsen intra %v != %v", ib, if_)
		}
		requireSameComm(t, "coarsen", cb, cf)

		verts := make([]int, 0, n/2)
		for v := n - 1; v >= 0; v -= 2 { // descending order on purpose
			verts = append(verts, v)
		}
		sb, lb := b.InducedSubgraph(verts)
		sf, lf := f.InducedSubgraph(verts)
		requireSameComm(t, "induced", sb, sf)
		if len(lb) != len(lf) {
			t.Fatalf("induced local maps differ in size")
		}
		for k, v := range lb {
			if lf[k] != v {
				t.Fatalf("induced local map differs at %d", k)
			}
		}

		requireSameComm(t, "scaled", b.Scale(0.625), f.Scale(0.625))
		requireSameComm(t, "clone", b.Clone(), f.Clone())

		if !b.Equal(f, 0) || !f.Equal(b, 0) {
			t.Fatalf("Equal(tol=0) rejects builder/frozen pair")
		}
	}
}

// TestFrozenDerivedStayFrozen checks frozen-ness propagates through derived
// operations, so one Freeze at the pipeline entry covers the whole solve.
func TestFrozenDerivedStayFrozen(t *testing.T) {
	f := randomComm(32, 4, 1).Freeze()
	assign := make([]int, 32)
	for i := range assign {
		assign[i] = i % 8
	}
	cg, _ := f.Coarsen(assign, 8)
	sg, _ := f.InducedSubgraph([]int{3, 1, 4, 15, 9, 2, 6})
	for name, g := range map[string]*Comm{
		"coarsen": cg, "induced": sg, "scaled": f.Scale(2), "clone": f.Clone(),
	} {
		if !g.Frozen() {
			t.Errorf("%s of frozen graph is not frozen", name)
		}
	}
	b := randomComm(32, 4, 1)
	if bc, _ := b.Coarsen(assign, 8); bc.Frozen() {
		t.Errorf("coarsen of builder graph is frozen")
	}
}

func TestFreezeIdempotent(t *testing.T) {
	g := randomComm(16, 3, 2)
	f := g.Freeze()
	if f != g {
		t.Fatalf("Freeze must return the receiver")
	}
	if g.Freeze() != g {
		t.Fatalf("second Freeze must be a no-op returning the receiver")
	}
}

func TestMutateAfterFreezePanics(t *testing.T) {
	g := randomComm(8, 2, 3).Freeze()
	defer func() {
		r := recover()
		if r == nil {
			t.Fatalf("AddTraffic on frozen graph did not panic")
		}
		msg, ok := r.(string)
		if !ok || !strings.Contains(msg, "frozen") || !strings.Contains(msg, "AddTraffic") {
			t.Fatalf("panic message %q does not explain the frozen mutation", r)
		}
	}()
	g.AddTraffic(0, 1, 5)
}

// TestTraversalZeroAllocs is the always-on version of the benchmark gate:
// hot traversals of a frozen graph must not allocate.
func TestTraversalZeroAllocs(t *testing.T) {
	g := randomComm(256, 8, 4).Freeze()
	sink := 0.0
	cases := map[string]func(){
		"EachFlow": func() {
			g.EachFlow(func(s, d int, vol float64) { sink += vol })
		},
		"Edges": func() {
			for s := 0; s < g.N(); s++ {
				_, vols := g.Edges(s)
				if len(vols) > 0 {
					sink += vols[0]
				}
			}
		},
		"Traffic": func() {
			for s := 0; s < g.N(); s++ {
				sink += g.Traffic(s, (s*17+1)%g.N())
			}
		},
		"OutVolume": func() {
			for s := 0; s < g.N(); s++ {
				sink += g.OutVolume(s)
			}
		},
		"TotalVolume": func() { sink += g.TotalVolume() },
		"Degree": func() {
			for s := 0; s < g.N(); s++ {
				sink += float64(g.Degree(s))
			}
		},
	}
	for name, fn := range cases {
		if allocs := testing.AllocsPerRun(100, fn); allocs != 0 {
			t.Errorf("%s: %v allocs/op on frozen graph, want 0", name, allocs)
		}
	}
	_ = sink
}

func TestReadRejectsDuplicateHeader(t *testing.T) {
	in := "comm 4\n0 1 2.5\ncomm 4\n1 2 3\n"
	if _, err := Read(strings.NewReader(in)); err == nil {
		t.Fatalf("duplicate header accepted")
	} else if !strings.Contains(err.Error(), "line 3") || !strings.Contains(err.Error(), "duplicate header") {
		t.Fatalf("error %q does not name line 3 / duplicate header", err)
	}
}

func TestReadRejectsNonFiniteVolumes(t *testing.T) {
	for _, bad := range []string{"NaN", "Inf", "-Inf", "+Inf"} {
		in := "comm 4\n0 1 1\n2 3 " + bad + "\n"
		_, err := Read(strings.NewReader(in))
		if err == nil {
			t.Fatalf("volume %s accepted", bad)
		}
		if !strings.Contains(err.Error(), "line 3") || !strings.Contains(err.Error(), "non-finite") {
			t.Fatalf("error %q does not name line 3 / non-finite for %s", err, bad)
		}
	}
}

// TestWriteReadRoundTripExact: WriteTo uses %g, Go's shortest round-tripping
// float format, so Read must reproduce every volume bit-exactly — for both
// representations of the source graph.
func TestWriteReadRoundTripExact(t *testing.T) {
	for seed := int64(0); seed < 8; seed++ {
		g := randomComm(50, 5, seed)
		if seed%2 == 1 {
			g.Freeze()
		}
		var buf bytes.Buffer
		if _, err := g.WriteTo(&buf); err != nil {
			t.Fatalf("WriteTo: %v", err)
		}
		got, err := Read(&buf)
		if err != nil {
			t.Fatalf("Read: %v", err)
		}
		requireSameComm(t, "round trip", g, got)
		gf, hf := g.Flows(), got.Flows()
		for i := range gf {
			if math.Float64bits(gf[i].Vol) != math.Float64bits(hf[i].Vol) {
				t.Fatalf("seed %d: volume %d not bit-exact after round trip", seed, i)
			}
		}
	}
}

func TestEqualMergeScan(t *testing.T) {
	a := randomComm(40, 4, 9)
	b := a.Clone()
	if !a.Equal(b, 0) {
		t.Fatalf("clone not Equal at tol 0")
	}
	b.AddTraffic(0, 39, 1e-6)
	if a.Equal(b, 1e-9) {
		t.Fatalf("Equal missed an extra edge beyond tol")
	}
	if !a.Equal(b, 1e-3) {
		t.Fatalf("Equal rejected difference within tol")
	}
	// Same checks across representations.
	if a.Freeze(); a.Equal(b, 1e-9) || !a.Equal(b, 1e-3) {
		t.Fatalf("frozen Equal disagrees with builder Equal")
	}
	c := New(40)
	c.AddTraffic(1, 2, 3)
	if a.Equal(c, 1e-3) || c.Equal(a, 1e-3) {
		t.Fatalf("Equal ignored structural mismatch")
	}
}

// ---- allocation micro-benchmarks (CI gates the traversal ones to 0 allocs/op) ----

func benchGraph(b *testing.B, frozen bool) *Comm {
	b.Helper()
	g := randomComm(1024, 8, 42)
	if frozen {
		g.Freeze()
	}
	return g
}

// BenchmarkFlows measures a full-graph traversal. The frozen EachFlow path
// is the hot one and must report 0 allocs/op; the builder path and the
// materializing Flows() compat wrapper are kept for comparison.
func BenchmarkFlows(b *testing.B) {
	for _, bc := range []struct {
		name   string
		frozen bool
	}{{"frozen", true}, {"builder", false}} {
		g := benchGraph(b, bc.frozen)
		b.Run(bc.name, func(b *testing.B) {
			sink := 0.0
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				g.EachFlow(func(s, d int, vol float64) { sink += vol })
			}
			_ = sink
		})
	}
	g := benchGraph(b, true)
	b.Run("slice-compat", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			_ = g.Flows()
		}
	})
}

// BenchmarkTraversal covers the remaining per-vertex hot accessors; every
// sub-benchmark runs on a frozen graph and must report 0 allocs/op.
func BenchmarkTraversal(b *testing.B) {
	g := benchGraph(b, true)
	b.Run("edges", func(b *testing.B) {
		sink := 0.0
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			for s := 0; s < g.N(); s++ {
				_, vols := g.Edges(s)
				for _, v := range vols {
					sink += v
				}
			}
		}
		_ = sink
	})
	b.Run("traffic", func(b *testing.B) {
		sink := 0.0
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			for s := 0; s < g.N(); s++ {
				sink += g.Traffic(s, (s*31+7)%g.N())
			}
		}
		_ = sink
	})
	b.Run("outvolume", func(b *testing.B) {
		sink := 0.0
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			for s := 0; s < g.N(); s++ {
				sink += g.OutVolume(s)
			}
		}
		_ = sink
	})
}

// BenchmarkCoarsen compares the CSR-direct coarsening against the
// map-builder path (the result graph itself must be allocated, so this one
// is about constant-factor allocation volume, not zero allocs).
func BenchmarkCoarsen(b *testing.B) {
	assign := make([]int, 1024)
	for i := range assign {
		assign[i] = i / 16
	}
	for _, bc := range []struct {
		name   string
		frozen bool
	}{{"frozen", true}, {"builder", false}} {
		g := benchGraph(b, bc.frozen)
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				_, _ = g.Coarsen(assign, 64)
			}
		})
	}
}

// BenchmarkInduced compares CSR-direct induced subgraphs against the
// map-builder path.
func BenchmarkInduced(b *testing.B) {
	verts := make([]int, 256)
	for i := range verts {
		verts[i] = i * 4
	}
	for _, bc := range []struct {
		name   string
		frozen bool
	}{{"frozen", true}, {"builder", false}} {
		g := benchGraph(b, bc.frozen)
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				_, _ = g.InducedSubgraph(verts)
			}
		})
	}
}
