package graph

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"
)

// randomCalls draws a reproducible sparse AddTraffic sequence: n vertices,
// about deg out-edges each, volumes spread over many binades so
// order-sensitive float accumulation differences cannot hide.
func randomCalls(n, deg int, seed int64) []call {
	rng := rand.New(rand.NewSource(seed))
	var cs []call
	for s := 0; s < n; s++ {
		for k := 0; k < deg; k++ {
			cs = append(cs, call{s, rng.Intn(n), math.Ldexp(1+rng.Float64(), rng.Intn(24)-12)})
		}
	}
	return cs
}

// randomComm builds the graph of randomCalls.
func randomComm(n, deg int, seed int64) *Comm {
	b := New(n)
	for _, c := range randomCalls(n, deg, seed) {
		b.AddTraffic(c.s, c.d, c.vol)
	}
	return b.Build()
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

// TestFrozenBitIdenticalToBuilder pins the CSR form to the map-backed
// builder it replaced: for the same calls, every accessor and derived
// operation returns bit-identical results on the built graph and on the
// map oracle, whose derived operations run the old map paths.
func TestFrozenBitIdenticalToBuilder(t *testing.T) {
	for _, n := range []int{1, 7, 64, 200} {
		o := newMapOracle(n)
		for _, c := range randomCalls(n, 6, int64(n)) {
			o.add(c.s, c.d, c.vol)
		}
		want, g := o.comm(), randomComm(n, 6, int64(n))
		requireSameCSR(t, "base", g, want)

		for s := 0; s < n; s++ {
			for d, v := range o.adj[s] {
				if math.Float64bits(g.Traffic(s, d)) != math.Float64bits(v) {
					t.Fatalf("Traffic(%d,%d) = %v, oracle %v", s, d, g.Traffic(s, d), v)
				}
			}
			if math.Float64bits(g.Traffic(s, (s+1)%n)) != math.Float64bits(o.adj[s][(s+1)%n]) {
				t.Fatalf("Traffic miss lookup differs at %d", s)
			}
			if g.Degree(s) != len(o.adj[s]) {
				t.Fatalf("Degree(%d) differs", s)
			}
		}

		assign := make([]int, n)
		parts := n/3 + 1
		for i := range assign {
			assign[i] = (i * 7) % parts
		}
		co, io := o.coarsen(assign, parts)
		cg, ig := g.Coarsen(assign, parts)
		if math.Float64bits(ig) != math.Float64bits(io) {
			t.Fatalf("Coarsen intra %v, oracle %v", ig, io)
		}
		requireSameCSR(t, "coarsen", cg, co.comm())

		verts := make([]int, 0, n/2)
		for v := n - 1; v >= 0; v -= 2 { // descending order on purpose
			verts = append(verts, v)
		}
		sg, local := g.InducedSubgraph(verts)
		requireSameCSR(t, "induced", sg, o.induced(verts).comm())
		for i, v := range verts {
			if local[v] != i || len(local) != len(verts) {
				t.Fatalf("induced local map %v for vertices %v", local, verts)
			}
		}

		requireSameCSR(t, "scaled", g.Scale(0.625), o.scale(0.625).comm())
		if !g.Equal(want, 0) || !want.Equal(g, 0) {
			t.Fatalf("Equal(tol=0) rejects the oracle's graph")
		}
	}
}

// TestFreezeIdempotent: Freeze is a no-op that returns its receiver.
func TestFreezeIdempotent(t *testing.T) {
	g := randomComm(16, 3, 2)
	if g.Freeze() != g || g.Freeze().Freeze() != g {
		t.Fatalf("Freeze must return the receiver")
	}
}

// TestTraversalZeroAllocs is the always-on version of the benchmark gate:
// hot traversals of a graph must not allocate.
func TestTraversalZeroAllocs(t *testing.T) {
	g := randomComm(256, 8, 4)
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
			t.Errorf("%s: %v allocs/op, want 0", name, allocs)
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
// float format, so Read must reproduce every volume bit-exactly.
func TestWriteReadRoundTripExact(t *testing.T) {
	for seed := int64(0); seed < 8; seed++ {
		g := randomComm(50, 5, seed)
		var buf bytes.Buffer
		if _, err := g.WriteTo(&buf); err != nil {
			t.Fatalf("WriteTo: %v", err)
		}
		got, err := Read(&buf)
		if err != nil {
			t.Fatalf("Read: %v", err)
		}
		requireSameCSR(t, fmt.Sprintf("seed %d round trip", seed), got, g)
	}
}

// rebuilt returns a builder holding g's flows, in (src, dst) order.
func rebuilt(g *Comm) *Builder {
	b := New(g.N())
	g.EachFlow(b.AddTraffic)
	return b
}

func TestEqualMergeScan(t *testing.T) {
	a := randomComm(40, 4, 9)
	bb := rebuilt(a)
	if !a.Equal(bb.Build(), 0) {
		t.Fatalf("rebuilt graph not Equal at tol 0")
	}
	bb.AddTraffic(0, 39, 1e-6)
	b := bb.Build()
	if a.Equal(b, 1e-9) {
		t.Fatalf("Equal missed an extra edge beyond tol")
	}
	if !a.Equal(b, 1e-3) {
		t.Fatalf("Equal rejected difference within tol")
	}
	c := New(40)
	c.AddTraffic(1, 2, 3)
	if a.Equal(c.Build(), 1e-3) || c.Build().Equal(a, 1e-3) {
		t.Fatalf("Equal ignored structural mismatch")
	}
}

// ---- allocation micro-benchmarks (CI gates the traversal ones to 0 allocs/op) ----

// BenchmarkFlows measures a full-graph traversal. EachFlow is the hot one
// and must report 0 allocs/op; the materializing Flows() compat wrapper is
// kept for comparison.
func BenchmarkFlows(b *testing.B) {
	g := randomComm(1024, 8, 42)
	b.Run("eachflow", func(b *testing.B) {
		sink := 0.0
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			g.EachFlow(func(s, d int, vol float64) { sink += vol })
		}
		_ = sink
	})
	b.Run("slice-compat", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			_ = g.Flows()
		}
	})
}

// BenchmarkTraversal covers the remaining per-vertex hot accessors; every
// sub-benchmark must report 0 allocs/op.
func BenchmarkTraversal(b *testing.B) {
	g := randomComm(1024, 8, 42)
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

// BenchmarkCoarsen measures coarsening (the result graph itself must be
// allocated, so this one is about allocation volume, not zero allocs).
func BenchmarkCoarsen(b *testing.B) {
	g := randomComm(1024, 8, 42)
	assign := make([]int, 1024)
	for i := range assign {
		assign[i] = i / 16
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_, _ = g.Coarsen(assign, 64)
	}
}

// BenchmarkInduced measures induced subgraphs.
func BenchmarkInduced(b *testing.B) {
	g := randomComm(1024, 8, 42)
	verts := make([]int, 256)
	for i := range verts {
		verts[i] = i * 4
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_, _ = g.InducedSubgraph(verts)
	}
}
