// Package graph provides weighted directed communication graphs: the
// application-side input of the RAHTM mapping problem. Vertices are MPI
// process ranks (or, after clustering, cluster ids); edge weights are
// communication volumes in arbitrary byte-like units.
//
// A Comm has two representations. New starts a mutable builder backed by
// adjacency maps; Freeze compiles it into an immutable CSR (compressed
// sparse row) form whose traversals are allocation-free linear scans in
// deterministic (src, dst) order. Read parses the text format straight into
// the CSR form. Every accessor works on both forms and
// iterates in the same order, so float accumulations are bit-identical
// whichever representation backs the graph.
package graph

import (
	"bufio"
	"fmt"
	"hash/fnv"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
	"unicode/utf8"
)

// Flow is one directed communication demand.
type Flow struct {
	Src, Dst int
	Vol      float64
}

// Comm is a weighted directed communication graph over N vertices.
// The zero value is unusable; create instances with New.
type Comm struct {
	n   int
	adj []map[int]float64 // builder: adj[s][d] = volume, self-edges excluded; nil once frozen

	// Frozen CSR form (set by Freeze / derived frozen operations): row s is
	// colIdx[rowPtr[s]:rowPtr[s+1]] with parallel volumes in vol, columns
	// ascending within each row.
	frozen bool
	rowPtr []int32
	colIdx []int32
	vol    []float64
	outVol []float64 // cached per-vertex out-volume sums
	totVol float64   // cached total volume
}

// New returns an empty communication graph over n vertices in builder form.
func New(n int) *Comm {
	if n < 0 {
		panic("graph: negative vertex count")
	}
	ctrGraphBuild.Inc()
	return &Comm{n: n, adj: make([]map[int]float64, n)}
}

// N returns the vertex count.
func (g *Comm) N() int { return g.n }

// AddTraffic adds vol to the directed edge s->d. Self-traffic and
// non-positive volumes are ignored (self-traffic never crosses the network).
// Panics on a frozen graph: Freeze ends the build phase.
func (g *Comm) AddTraffic(s, d int, vol float64) {
	if g.frozen {
		panic(fmt.Sprintf("graph: AddTraffic(%d, %d) on frozen graph: Freeze made it immutable; add all traffic before freezing (or Clone the builder first)", s, d))
	}
	g.check(s)
	g.check(d)
	if s == d || vol <= 0 {
		return
	}
	if g.adj[s] == nil {
		g.adj[s] = make(map[int]float64)
	}
	g.adj[s][d] += vol
}

// Traffic returns the volume on the directed edge s->d (0 when absent).
// On a frozen graph this is a binary search within row s.
func (g *Comm) Traffic(s, d int) float64 {
	g.check(s)
	g.check(d)
	if !g.frozen {
		return g.adj[s][d]
	}
	lo, hi := int(g.rowPtr[s]), int(g.rowPtr[s+1])
	end := hi
	dd := int32(d)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if g.colIdx[mid] < dd {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < end && g.colIdx[lo] == dd {
		return g.vol[lo]
	}
	return 0
}

func (g *Comm) check(v int) {
	if v < 0 || v >= g.n {
		panic(fmt.Sprintf("graph: vertex %d out of range [0,%d)", v, g.n))
	}
}

// NumEdges returns the number of directed edges with positive volume.
func (g *Comm) NumEdges() int {
	if g.frozen {
		return len(g.colIdx)
	}
	m := 0
	for _, a := range g.adj {
		m += len(a)
	}
	return m
}

// Degree returns the out-degree of s.
func (g *Comm) Degree(s int) int {
	g.check(s)
	if g.frozen {
		return int(g.rowPtr[s+1] - g.rowPtr[s])
	}
	return len(g.adj[s])
}

// sortedDsts returns the keys of one builder adjacency row in ascending
// order. Every observable iteration over a builder row goes through this
// helper: float accumulation is not associative, so summing (or re-adding)
// volumes in Go's randomized map order would leak that order into results
// that must be bit-identical across runs and schedules. The frozen form gets
// the same order for free from its sorted CSR rows.
func sortedDsts(a map[int]float64) []int {
	dsts := make([]int, 0, len(a))
	for d := range a {
		dsts = append(dsts, d)
	}
	sort.Ints(dsts)
	return dsts
}

// Edges returns the out-neighbors of s in ascending order and the matching
// volumes. On a frozen graph the slices alias the CSR arrays — zero
// allocation — and must not be modified by the caller. On a builder graph
// they are compiled per call.
func (g *Comm) Edges(s int) ([]int32, []float64) {
	g.check(s)
	if g.frozen {
		return g.row(s)
	}
	a := g.adj[s]
	ds := sortedDsts(a)
	dsts := make([]int32, len(ds))
	vols := make([]float64, len(ds))
	for i, d := range ds {
		dsts[i] = int32(d)
		vols[i] = a[d]
	}
	return dsts, vols
}

// EachFlow calls fn for every directed edge in (src, dst) order. On a frozen
// graph the traversal is allocation-free.
func (g *Comm) EachFlow(fn func(s, d int, vol float64)) {
	if g.frozen {
		for s := 0; s < g.n; s++ {
			for k := g.rowPtr[s]; k < g.rowPtr[s+1]; k++ {
				fn(s, int(g.colIdx[k]), g.vol[k])
			}
		}
		return
	}
	for s, a := range g.adj {
		for _, d := range sortedDsts(a) {
			fn(s, d, a[d])
		}
	}
}

// TotalVolume returns the sum of all edge volumes (cached when frozen).
func (g *Comm) TotalVolume() float64 {
	if g.frozen {
		return g.totVol
	}
	tot := 0.0
	for _, a := range g.adj {
		for _, d := range sortedDsts(a) {
			tot += a[d]
		}
	}
	return tot
}

// Flows returns every directed edge in deterministic (src, dst) order.
func (g *Comm) Flows() []Flow {
	out := make([]Flow, 0, g.NumEdges())
	g.EachFlow(func(s, d int, vol float64) {
		out = append(out, Flow{Src: s, Dst: d, Vol: vol})
	})
	return out
}

// Neighbors returns the out-neighbors of s in ascending order.
func (g *Comm) Neighbors(s int) []int {
	g.check(s)
	if !g.frozen {
		return sortedDsts(g.adj[s])
	}
	dsts, _ := g.row(s)
	out := make([]int, len(dsts))
	for i, d := range dsts {
		out[i] = int(d)
	}
	return out
}

// OutVolume returns the total volume originating at s (cached when frozen).
func (g *Comm) OutVolume(s int) float64 {
	g.check(s)
	if g.frozen {
		return g.outVol[s]
	}
	tot := 0.0
	a := g.adj[s]
	for _, d := range sortedDsts(a) {
		tot += a[d]
	}
	return tot
}

// Clone returns a deep copy in the same representation as the receiver.
func (g *Comm) Clone() *Comm {
	if g.frozen {
		return g.cloneFrozen()
	}
	out := New(g.n)
	for s, a := range g.adj {
		for _, d := range sortedDsts(a) {
			out.AddTraffic(s, d, a[d])
		}
	}
	return out
}

// Scale returns a copy with every volume multiplied by f (> 0).
func (g *Comm) Scale(f float64) *Comm {
	if f <= 0 {
		panic("graph: non-positive scale factor")
	}
	if g.frozen {
		return g.scaleFrozen(f)
	}
	out := New(g.n)
	for s, a := range g.adj {
		for _, d := range sortedDsts(a) {
			out.AddTraffic(s, d, a[d]*f)
		}
	}
	return out
}

// Coarsen merges vertices according to assign (len N, values in [0, parts))
// and returns the cluster-level graph: volume between clusters a != b is the
// sum of volumes between their members; intra-cluster volume is dropped
// (it becomes on-node shared-memory traffic). Also returns the total volume
// that became intra-cluster, the quantity Phase 1 tiling minimizes the
// complement of.
func (g *Comm) Coarsen(assign []int, parts int) (*Comm, float64) {
	if len(assign) != g.n {
		panic("graph: assignment length mismatch")
	}
	if g.frozen {
		return g.coarsenFrozen(assign, parts)
	}
	out := New(parts)
	intra := 0.0
	for s, a := range g.adj {
		cs := assign[s]
		if cs < 0 || cs >= parts {
			panic(fmt.Sprintf("graph: assignment %d for vertex %d out of range", cs, s))
		}
		for _, d := range sortedDsts(a) {
			cd := assign[d]
			if cs == cd {
				intra += a[d]
			} else {
				out.AddTraffic(cs, cd, a[d])
			}
		}
	}
	return out, intra
}

// InducedSubgraph returns the subgraph over the given vertices (in the given
// order; result vertex i corresponds to verts[i]), keeping only edges with
// both endpoints inside. The second return value maps original -> local ids.
func (g *Comm) InducedSubgraph(verts []int) (*Comm, map[int]int) {
	if g.frozen {
		return g.inducedFrozen(verts)
	}
	local := make(map[int]int, len(verts))
	for i, v := range verts {
		g.check(v)
		if _, dup := local[v]; dup {
			panic("graph: duplicate vertex in InducedSubgraph")
		}
		local[v] = i
	}
	out := New(len(verts))
	for _, v := range verts {
		a := g.adj[v]
		for _, d := range sortedDsts(a) {
			if ld, ok := local[d]; ok {
				out.AddTraffic(local[v], ld, a[d])
			}
		}
	}
	return out, local
}

// Equal reports whether the two graphs have identical vertex counts and edge
// volumes within tol. Rows are compared with one merge-style linear scan
// over each graph's sorted edges (no re-sorting, no per-edge map lookups).
func (g *Comm) Equal(h *Comm, tol float64) bool {
	if g.n != h.n {
		return false
	}
	for s := 0; s < g.n; s++ {
		gd, gv := g.Edges(s)
		hd, hv := h.Edges(s)
		i, j := 0, 0
		for i < len(gd) || j < len(hd) {
			switch {
			case j >= len(hd) || (i < len(gd) && gd[i] < hd[j]):
				if math.Abs(gv[i]) > tol {
					return false
				}
				i++
			case i >= len(gd) || hd[j] < gd[i]:
				if math.Abs(hv[j]) > tol {
					return false
				}
				j++
			default:
				if math.Abs(gv[i]-hv[j]) > tol {
					return false
				}
				i++
				j++
			}
		}
	}
	return true
}

// StructuralHash returns a hash of the graph's exact edge structure (vertex
// ids, edge volumes quantized to 1e-9). RAHTM's merge phase uses it to reuse
// solutions across sibling subproblems with identical local communication.
func (g *Comm) StructuralHash() uint64 {
	h := fnv.New64a()
	var buf [24]byte
	put := func(a, b int, v float64) {
		q := int64(math.Round(v * 1e9))
		for i := 0; i < 8; i++ {
			buf[i] = byte(a >> (8 * i))
			buf[8+i] = byte(b >> (8 * i))
			buf[16+i] = byte(q >> (8 * i))
		}
		h.Write(buf[:])
	}
	put(g.n, 0, 0)
	g.EachFlow(put)
	return h.Sum64()
}

// WriteTo serializes the graph in a plain text format:
//
//	comm <n>
//	<src> <dst> <vol>
//	...
//
// Returns the byte count written.
func (g *Comm) WriteTo(w io.Writer) (int64, error) {
	var total int64
	n, err := fmt.Fprintf(w, "comm %d\n", g.n)
	total += int64(n)
	if err != nil {
		return total, err
	}
	for _, f := range g.Flows() {
		n, err = fmt.Fprintf(w, "%d %d %g\n", f.Src, f.Dst, f.Vol)
		total += int64(n)
		if err != nil {
			return total, err
		}
	}
	return total, nil
}

// ReadHeader parses the "comm <n>" header line of the WriteTo format and
// returns the vertex count n, so a caller can bound n before Read
// allocates the graph.
func ReadHeader(line string) (int, error) {
	head := strings.Fields(line)
	if len(head) != 2 || head[0] != "comm" {
		return 0, fmt.Errorf("graph: bad header %q", line)
	}
	n, err := strconv.Atoi(head[1])
	if err != nil || n < 0 {
		return 0, fmt.Errorf("graph: bad vertex count %q", head[1])
	}
	return n, nil
}

// Read parses the format produced by WriteTo straight into the frozen CSR
// form. Duplicate header lines and non-finite volumes are rejected with
// line-numbered errors. Edges are collected in line order, dropping
// self-traffic and non-positive volumes as AddTraffic does, and compiled by
// compileEdges, so every volume bit is what AddTraffic followed by Freeze
// gives.
func Read(r io.Reader) (*Comm, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 4<<10), 1<<24)
	if !sc.Scan() {
		return nil, fmt.Errorf("graph: empty input")
	}
	n, err := ReadHeader(sc.Text())
	if err != nil {
		return nil, err
	}
	if n > math.MaxInt32 {
		return nil, fmt.Errorf("graph: vertex count %d overflows the CSR index", n)
	}
	var (
		es []edge
		f  [3][]byte
	)
	for line := 2; sc.Scan(); line++ {
		txt, nf := splitLine(sc.Bytes(), &f)
		if nf == 0 || f[0][0] == '#' {
			continue
		}
		if string(f[0]) == "comm" {
			return nil, fmt.Errorf("graph: line %d: duplicate header %q", line, txt)
		}
		if nf != 3 {
			return nil, fmt.Errorf("graph: line %d: want 'src dst vol', got %q", line, txt)
		}
		s, ok1 := parseInt(f[0])
		d, ok2 := parseInt(f[1])
		v, ok3 := parseVol(f[2])
		if !ok1 || !ok2 || !ok3 {
			return nil, fmt.Errorf("graph: line %d: parse error in %q", line, txt)
		}
		if s < 0 || s >= n || d < 0 || d >= n {
			return nil, fmt.Errorf("graph: line %d: vertex out of range in %q", line, txt)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("graph: line %d: non-finite volume in %q", line, txt)
		}
		if s != d && v > 0 {
			es = append(es, edge{pair: uint64(s)<<32 | uint64(d), vol: v})
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if len(es) > math.MaxInt32 {
		return nil, fmt.Errorf("graph: %d edges overflow the CSR index", len(es))
	}
	return compileEdges(n, es), nil
}

// Byte classes of splitLine: a field byte, an ASCII byte unicode.IsSpace
// accepts (the separators strings.TrimSpace and strings.Fields use on ASCII
// input), and a byte outside ASCII.
const (
	fieldByte = iota
	spaceByte
	wideByte
)

var byteClass = func() (c [256]uint8) {
	for _, b := range []byte("\t\n\v\f\r ") {
		c[b] = spaceByte
	}
	for b := utf8.RuneSelf; b < len(c); b++ {
		c[b] = wideByte
	}
	return c
}()

// splitLine returns a line's text trimmed as strings.TrimSpace trims it and
// its field count as strings.Fields counts it, storing the first len(f)
// fields in f. An all-ASCII line is split in place in one pass, so the
// fields alias b; a line holding any other byte goes through those two
// functions, so Unicode whitespace keeps its meaning there.
func splitLine(b []byte, f *[3][]byte) (txt []byte, nf int) {
	start, from := 0, -1 // from: start of the open field, -1 between fields
	for i, c := range b {
		switch byteClass[c] {
		case fieldByte:
			if from < 0 {
				if nf == 0 {
					start = i
				}
				from = i
			}
		case spaceByte:
			if from >= 0 {
				if nf < len(f) {
					f[nf] = b[from:i]
				}
				nf++
				txt = b[start:i]
				from = -1
			}
		default:
			t := strings.TrimSpace(string(b))
			fs := strings.Fields(t)
			for i := 0; i < len(fs) && i < len(f); i++ {
				f[i] = []byte(fs[i])
			}
			return []byte(t), len(fs)
		}
	}
	if from >= 0 {
		if nf < len(f) {
			f[nf] = b[from:]
		}
		nf++
		txt = b[start:]
	}
	return txt, nf
}

// parseInt is strconv.Atoi on a field. With a 64-bit int, up to 18 bytes
// cannot overflow, so those are parsed in place, as Atoi's own fast path
// does; anything else goes through Atoi.
func parseInt(b []byte) (int, bool) {
	if strconv.IntSize < 64 || len(b) >= 19 {
		x, err := strconv.Atoi(string(b))
		return x, err == nil
	}
	neg := len(b) > 0 && b[0] == '-'
	if len(b) > 0 && (b[0] == '-' || b[0] == '+') {
		b = b[1:]
	}
	u, ok := digits(b)
	x := int(u)
	if neg {
		x = -x
	}
	return x, ok
}

// parseVol is strconv.ParseFloat(field, 64). A field of at most 15 plain
// digits is an integer below 10^15, which a float64 holds exactly, so it
// converts directly; anything else goes through ParseFloat.
func parseVol(b []byte) (float64, bool) {
	if len(b) <= 15 {
		if x, ok := digits(b); ok {
			return float64(x), true
		}
	}
	v, err := strconv.ParseFloat(string(b), 64)
	return v, err == nil
}

// digits returns the value of a non-empty run of at most 19 ASCII digits.
func digits(b []byte) (uint64, bool) {
	if len(b) == 0 {
		return 0, false
	}
	var x uint64
	for _, c := range b {
		if c -= '0'; c > 9 {
			return 0, false
		}
		x = x*10 + uint64(c)
	}
	return x, true
}
