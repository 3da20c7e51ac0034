package graph

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"
)

// mapOracle is the map-backed graph form the builder replaced: volumes
// accumulate with += per (src, dst) pair in call order, and rows are
// compiled from the sorted keys. It survives only as the reference of the
// differential tests.
type mapOracle struct {
	n   int
	adj []map[int]float64
}

func newMapOracle(n int) *mapOracle { return &mapOracle{n: n, adj: make([]map[int]float64, n)} }

// add is the old AddTraffic: self-traffic and non-positive volumes are
// dropped.
func (o *mapOracle) add(s, d int, vol float64) {
	if s == d || vol <= 0 {
		return
	}
	if o.adj[s] == nil {
		o.adj[s] = make(map[int]float64)
	}
	o.adj[s][d] += vol
}

// sortedRow returns row s's destinations in ascending order, as the map
// form's sortedDsts did.
func (o *mapOracle) sortedRow(s int) []int {
	dsts := make([]int, 0, len(o.adj[s]))
	for d := range o.adj[s] {
		dsts = append(dsts, d)
	}
	sort.Ints(dsts)
	return dsts
}

// each calls fn for every edge in ascending (src, dst) order.
func (o *mapOracle) each(fn func(s, d int, vol float64)) {
	for s := range o.adj {
		for _, d := range o.sortedRow(s) {
			fn(s, d, o.adj[s][d])
		}
	}
}

// comm compiles the maps into CSR rows in ascending (src, dst) order.
func (o *mapOracle) comm() *Comm {
	rowPtr := make([]int32, o.n+1)
	var (
		colIdx []int32
		vol    []float64
	)
	o.each(func(s, d int, v float64) {
		colIdx = append(colIdx, int32(d))
		vol = append(vol, v)
		rowPtr[s+1]++
	})
	for s := 0; s < o.n; s++ {
		rowPtr[s+1] += rowPtr[s]
	}
	return newCSR(o.n, rowPtr, colIdx, vol)
}

// coarsen is the map form's Coarsen: in (src, dst) order, intra-cluster
// volume is summed and every other edge is added to its cluster pair.
func (o *mapOracle) coarsen(assign []int, parts int) (*mapOracle, float64) {
	out, intra := newMapOracle(parts), 0.0
	o.each(func(s, d int, v float64) {
		if assign[s] == assign[d] {
			intra += v
		} else {
			out.add(assign[s], assign[d], v)
		}
	})
	return out, intra
}

// induced is the map form's InducedSubgraph: rows in the order of verts,
// each in ascending destination order.
func (o *mapOracle) induced(verts []int) *mapOracle {
	local := make(map[int]int, len(verts))
	for i, v := range verts {
		local[v] = i
	}
	out := newMapOracle(len(verts))
	for _, v := range verts {
		for _, d := range o.sortedRow(v) {
			if ld, ok := local[d]; ok {
				out.add(local[v], ld, o.adj[v][d])
			}
		}
	}
	return out
}

// scale is the map form's Scale.
func (o *mapOracle) scale(f float64) *mapOracle {
	out := newMapOracle(o.n)
	o.each(func(s, d int, v float64) { out.add(s, d, v*f) })
	return out
}

// requireSameCSR fails unless a and b hold the same rows, columns and
// volume bits, and so the same aggregates and structural hash.
func requireSameCSR(t *testing.T, ctxt string, a, b *Comm) {
	t.Helper()
	if a.n != b.n || !slices.Equal(a.rowPtr, b.rowPtr) || !slices.Equal(a.colIdx, b.colIdx) {
		t.Fatalf("%s: rows %d %v %v, want %d %v %v", ctxt, a.n, a.rowPtr, a.colIdx, b.n, b.rowPtr, b.colIdx)
	}
	requireSameComm(t, ctxt, a, b)
}

// call is one AddTraffic call.
type call struct {
	s, d int
	vol  float64
}

// genCalls draws a random AddTraffic sequence over n vertices: duplicate
// pairs adjacent and apart, self-loops, zero and negative volumes, runs of
// descending destinations, and volumes over many binades, so any change in
// the order duplicates are summed shows in the low bits.
func genCalls(rng *rand.Rand, n, m int) []call {
	vol := func() float64 {
		switch rng.Intn(12) {
		case 0:
			return 0
		case 1:
			return -rng.Float64()
		}
		return math.Ldexp(1+rng.Float64(), rng.Intn(40)-20)
	}
	var cs []call
	for len(cs) < m {
		switch r := rng.Intn(10); {
		case r == 0 && len(cs) > 0:
			c := cs[len(cs)-1] // adjacent duplicate
			cs = append(cs, call{c.s, c.d, vol()})
		case r == 1 && len(cs) > 0:
			c := cs[rng.Intn(len(cs))] // duplicate further back
			cs = append(cs, call{c.s, c.d, vol()})
		case r == 2:
			v := rng.Intn(n)
			cs = append(cs, call{v, v, vol()})
		case r == 3:
			s := rng.Intn(n)
			for d := n - 1; d >= 0 && len(cs) < m; d -= 1 + rng.Intn(3) {
				cs = append(cs, call{s, d, vol()})
			}
		default:
			cs = append(cs, call{rng.Intn(n), rng.Intn(n), vol()})
		}
	}
	return cs
}

// TestBuilderMatchesMapOracle drives the builder and the map oracle with
// the same random call sequences, including rows of more than a thousand
// edges, and requires the same CSR bit for bit, before and after further
// calls on a builder that has already been built once.
func TestBuilderMatchesMapOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for i := 0; i < 400; i++ {
		n := 1 + rng.Intn(40)
		m := rng.Intn(6 * n)
		if i%50 == 49 {
			n, m = 1500+rng.Intn(600), 12000 // rows of more than 1,000 edges
		}
		calls := genCalls(rng, n, m)
		b, o := New(n), newMapOracle(n)
		for k, c := range calls {
			b.AddTraffic(c.s, c.d, c.vol)
			o.add(c.s, c.d, c.vol)
			if k == len(calls)/2 {
				requireSameCSR(t, fmt.Sprintf("case %d, first half", i), b.Build(), o.comm())
			}
		}
		requireSameCSR(t, fmt.Sprintf("case %d", i), b.Build(), o.comm())
	}
}

// buildShape is one AddTraffic sequence of BenchmarkGraphBuild.
type buildShape struct {
	name  string
	n     int
	calls []call
}

// torusCalls lists a periodic halo exchange on a torus of the given
// extents: every vertex, in turn, sends vol to its two neighbors in each
// dimension.
func torusCalls(vol float64, dims ...int) []call {
	n := 1
	for _, d := range dims {
		n *= d
	}
	var cs []call
	coord := make([]int, len(dims))
	for v := 0; v < n; v++ {
		rem := v
		for x := len(dims) - 1; x >= 0; x-- {
			coord[x] = rem % dims[x]
			rem /= dims[x]
		}
		for x := range dims {
			for _, step := range [2]int{1, dims[x] - 1} {
				d := 0
				for y := range dims {
					c := coord[y]
					if y == x {
						c = (c + step) % dims[x]
					}
					d = d*dims[y] + c
				}
				cs = append(cs, call{v, d, vol})
			}
		}
	}
	return cs
}

// buildShapes are the graphs BenchmarkGraphBuild compiles: the two 4k
// halos of the scale ladder, a serve-mix-shaped 64-process request graph,
// an all-to-all over 1,024 ranks (every row two ascending runs), and the
// 64k halo3d's edges in shuffled order.
func buildShapes() []buildShape {
	rng := rand.New(rand.NewSource(1))
	var serve []call
	for v := 0; v < 64; v++ {
		i, j := v/8, v%8
		for _, d := range [...]int{i*8 + (j+1)%8, i*8 + (j+7)%8, (i+1)%8*8 + j, (i+7)%8*8 + j} {
			serve = append(serve, call{v, d, float64(1 + rng.Intn(9))})
		}
		serve = append(serve, call{v, rng.Intn(64), float64(1 + rng.Intn(4))})
	}
	var all []call
	for s := 1; s < 1024; s++ {
		for i := 0; i < 1024; i++ {
			all = append(all, call{i, (i + s) % 1024, 1})
		}
	}
	shuffled := torusCalls(10, 64, 32, 32)
	rng.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
	return []buildShape{
		{"halo2d-64x64", 4096, torusCalls(10, 64, 64)},
		{"halo3d-16x16x16", 4096, torusCalls(10, 16, 16, 16)},
		{"serve-64", 64, serve},
		{"alltoall-1024", 1024, all},
		{"shuffled-halo3d-64k", 65536, shuffled},
	}
}

// built keeps BenchmarkGraphBuild's results live.
var built *Comm

// BenchmarkGraphBuild times a graph's construction from its AddTraffic
// calls through to the compiled CSR form, and Read of the shuffled 64k
// halo's text.
func BenchmarkGraphBuild(b *testing.B) {
	for _, sh := range buildShapes() {
		b.Run(sh.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				g := New(sh.n)
				for _, c := range sh.calls {
					g.AddTraffic(c.s, c.d, c.vol)
				}
				built = g.Build()
			}
		})
	}
	sh := buildShapes()[4]
	var text bytes.Buffer
	fmt.Fprintf(&text, "comm %d\n", sh.n)
	for _, c := range sh.calls {
		fmt.Fprintf(&text, "%d %d %g\n", c.s, c.d, c.vol)
	}
	b.Run("read-"+sh.name, func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			var err error
			if built, err = Read(bytes.NewReader(text.Bytes())); err != nil {
				b.Fatal(err)
			}
		}
	})
}
