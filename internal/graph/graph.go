// Package graph provides weighted directed communication graphs: the
// application-side input of the RAHTM mapping problem. Vertices are MPI
// process ranks (or, after clustering, cluster ids); edge weights are
// communication volumes in arbitrary byte-like units.
//
// A Comm is immutable from the moment it exists. New returns a Builder,
// whose AddTraffic appends traffic in call order and whose Build compiles
// it into the CSR (compressed sparse row) form; Read parses the text format
// through the same compile, and the derived operations (Coarsen,
// InducedSubgraph, Scale) emit CSR results directly. Traversals are
// allocation-free linear scans in (src, dst) order, so every float
// accumulation over a graph runs in one fixed order.
package graph

import (
	"bufio"
	"fmt"
	"hash/fnv"
	"io"
	"math"
	"strconv"
	"strings"
	"unicode/utf8"
)

// Flow is one directed communication demand.
type Flow struct {
	Src, Dst int
	Vol      float64
}

// Comm is a weighted directed communication graph over N vertices, in CSR
// form: row s is colIdx[rowPtr[s]:rowPtr[s+1]] with parallel volumes in
// vol, columns ascending within each row. A Comm is never modified after
// it is built, so any number of goroutines may share one. Create instances
// with a Builder or Read.
type Comm struct {
	n      int
	rowPtr []int32
	colIdx []int32
	vol    []float64
	outVol []float64 // cached per-vertex out-volume sums
	totVol float64   // cached total volume
}

// Builder collects the traffic of a communication graph over a fixed
// vertex count. Create builders with New.
type Builder struct {
	n int
	m int // edges added
	// chunks hold the added edges in call order. Each chunk is twice the
	// size of the one before, up to maxChunk edges, and is never
	// reallocated: a growing builder copies nothing.
	chunks [][]edge
}

// maxChunk bounds the edge count of one Builder chunk.
const maxChunk = 1 << 13

// New returns an empty builder over n vertices.
func New(n int) *Builder {
	if n < 0 || n > math.MaxInt32 {
		panic(fmt.Sprintf("graph: vertex count %d outside the CSR index range", n))
	}
	return &Builder{n: n}
}

// N returns the vertex count.
func (b *Builder) N() int { return b.n }

// AddTraffic adds vol to the directed edge s->d. Self-traffic and
// non-positive volumes are ignored (self-traffic never crosses the network).
func (b *Builder) AddTraffic(s, d int, vol float64) {
	check(s, b.n)
	check(d, b.n)
	if s == d || vol <= 0 {
		return
	}
	last := len(b.chunks) - 1
	if last < 0 || len(b.chunks[last]) == cap(b.chunks[last]) {
		size := 64
		if last >= 0 {
			size = min(2*cap(b.chunks[last]), maxChunk)
		}
		b.chunks = append(b.chunks, make([]edge, 0, size))
		last++
	}
	b.chunks[last] = append(b.chunks[last], edge{src: int32(s), dst: int32(d), vol: vol})
	b.m++
}

// N returns the vertex count.
func (g *Comm) N() int { return g.n }

// Freeze returns g. A Comm is compiled and immutable from the moment it
// is built, so there is nothing left to freeze; the method remains for
// callers written when graphs had a mutable form.
func (g *Comm) Freeze() *Comm { return g }

// Traffic returns the volume on the directed edge s->d (0 when absent), by
// binary search within row s.
func (g *Comm) Traffic(s, d int) float64 {
	check(s, g.n)
	check(d, g.n)
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

func check(v, n int) {
	if v < 0 || v >= n {
		panic(fmt.Sprintf("graph: vertex %d out of range [0,%d)", v, n))
	}
}

// NumEdges returns the number of directed edges with positive volume.
func (g *Comm) NumEdges() int { return len(g.colIdx) }

// Degree returns the out-degree of s.
func (g *Comm) Degree(s int) int {
	check(s, g.n)
	return int(g.rowPtr[s+1] - g.rowPtr[s])
}

// Edges returns the out-neighbors of s in ascending order and the matching
// volumes. The slices alias the CSR arrays — zero allocation — and must
// not be modified by the caller.
func (g *Comm) Edges(s int) ([]int32, []float64) {
	check(s, g.n)
	b, e := g.rowPtr[s], g.rowPtr[s+1]
	return g.colIdx[b:e], g.vol[b:e]
}

// EachFlow calls fn for every directed edge in (src, dst) order, without
// allocating.
func (g *Comm) EachFlow(fn func(s, d int, vol float64)) {
	for s := 0; s < g.n; s++ {
		for k := g.rowPtr[s]; k < g.rowPtr[s+1]; k++ {
			fn(s, int(g.colIdx[k]), g.vol[k])
		}
	}
}

// TotalVolume returns the sum of all edge volumes.
func (g *Comm) TotalVolume() float64 { return g.totVol }

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
	dsts, _ := g.Edges(s)
	out := make([]int, len(dsts))
	for i, d := range dsts {
		out[i] = int(d)
	}
	return out
}

// OutVolume returns the total volume originating at s.
func (g *Comm) OutVolume(s int) float64 {
	check(s, g.n)
	return g.outVol[s]
}

// Equal reports whether the two graphs have identical vertex counts and edge
// volumes within tol. Rows are compared with one merge-style linear scan
// over each graph's sorted edges.
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

// Read parses the format produced by WriteTo. Duplicate header lines and
// non-finite volumes are rejected with line-numbered errors. The edge
// lines go to a Builder in line order, so the graph is the one AddTraffic
// calls in that order build.
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
		b = New(n)
		f [3][]byte
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
		b.AddTraffic(s, d, v)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if b.m > math.MaxInt32 {
		return nil, fmt.Errorf("graph: %d edges overflow the CSR index", b.m)
	}
	return b.Build(), nil
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
