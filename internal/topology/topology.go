// Package topology models k-ary n-dimensional torus and mesh interconnects
// (Blue Gene/Q's 5-D torus in the paper) and the 2-ary n-cube hierarchy that
// RAHTM's divide-and-conquer operates on.
//
// Nodes are identified both by dense ranks (0..N-1, row-major over the
// dimension list) and by coordinate vectors. Directed network channels are
// identified densely so per-channel load vectors can be flat slices.
package topology

import (
	"fmt"
	"math/bits"
	"strconv"
	"strings"
)

// Torus is a k-ary n-dimensional torus or mesh. Each dimension may wrap
// independently (a mesh is a torus with no wrapping dimensions).
type Torus struct {
	dims    []int
	wrap    []bool
	strides []int
	n       int
}

// NewTorus returns a fully wrapped torus with the given per-dimension sizes.
func NewTorus(dims ...int) *Torus {
	w := make([]bool, len(dims))
	for i, k := range dims {
		// A wrap link in a 1-wide or 2-wide dimension with k<=1 is
		// meaningless; wrapping a k=2 dimension yields the "double-wide
		// link" pair the paper exploits, so keep it.
		w[i] = k > 1
	}
	return newTorus(dims, w)
}

// NewMesh returns an unwrapped mesh with the given per-dimension sizes.
func NewMesh(dims ...int) *Torus {
	return newTorus(dims, make([]bool, len(dims)))
}

// NewMixed returns a topology with explicit per-dimension wrap flags.
func NewMixed(dims []int, wrap []bool) *Torus {
	if len(dims) != len(wrap) {
		panic("topology: dims/wrap length mismatch")
	}
	w := append([]bool(nil), wrap...)
	for i, k := range dims {
		if k <= 1 {
			w[i] = false
		}
	}
	return newTorus(dims, w)
}

func newTorus(dims []int, wrap []bool) *Torus {
	if len(dims) == 0 {
		panic("topology: need at least one dimension")
	}
	d := append([]int(nil), dims...)
	n := 1
	strides := make([]int, len(d))
	for i := len(d) - 1; i >= 0; i-- {
		if d[i] < 1 {
			panic(fmt.Sprintf("topology: dimension %d has size %d", i, d[i]))
		}
		strides[i] = n
		n *= d[i]
	}
	return &Torus{dims: d, wrap: wrap, strides: strides, n: n}
}

// N returns the node count.
func (t *Torus) N() int { return t.n }

// NumDims returns the dimensionality.
func (t *Torus) NumDims() int { return len(t.dims) }

// Dim returns the size of dimension d.
func (t *Torus) Dim(d int) int { return t.dims[d] }

// Stride returns the rank stride of dimension d: ranks are row-major over
// the dimension list, so moving one step along d changes the rank by this.
func (t *Torus) Stride(d int) int { return t.strides[d] }

// Dims returns a copy of the dimension sizes.
func (t *Torus) Dims() []int { return append([]int(nil), t.dims...) }

// Wrap reports whether dimension d wraps around.
func (t *Torus) Wrap(d int) bool { return t.wrap[d] }

// String renders e.g. "torus(4x4x4x2)" or "mesh(2x2)".
func (t *Torus) String() string {
	parts := make([]string, len(t.dims))
	allWrap, anyWrap := true, false
	for i, k := range t.dims {
		parts[i] = fmt.Sprintf("%d", k)
		if t.wrap[i] {
			anyWrap = true
		} else if k > 1 {
			allWrap = false
		}
	}
	kind := "mesh"
	if anyWrap && allWrap {
		kind = "torus"
	} else if anyWrap {
		kind = "mixed"
	}
	return kind + "(" + strings.Join(parts, "x") + ")"
}

// ParseDims parses a dimension list in the "AxBxC" form String renders
// inside its parentheses (case-insensitive x, surrounding space ignored).
// Every extent must be a positive integer.
func ParseDims(spec string) ([]int, error) {
	parts := strings.Split(strings.ToLower(strings.TrimSpace(spec)), "x")
	dims := make([]int, 0, len(parts))
	for _, p := range parts {
		v, err := strconv.Atoi(p)
		if err != nil || v < 1 {
			return nil, fmt.Errorf("bad dimension spec %q", spec)
		}
		dims = append(dims, v)
	}
	return dims, nil
}

// CoordOf decodes rank into a coordinate vector. If out has capacity it is
// reused; otherwise a new slice is allocated.
func (t *Torus) CoordOf(rank int, out []int) []int {
	if rank < 0 || rank >= t.n {
		panic(fmt.Sprintf("topology: rank %d out of range [0,%d)", rank, t.n))
	}
	if cap(out) < len(t.dims) {
		out = make([]int, len(t.dims))
	}
	out = out[:len(t.dims)]
	for i := range t.dims {
		out[i] = rank / t.strides[i]
		rank %= t.strides[i]
	}
	return out
}

// RankOf encodes a coordinate vector into a rank.
func (t *Torus) RankOf(coord []int) int {
	if len(coord) != len(t.dims) {
		panic("topology: coordinate dimensionality mismatch")
	}
	r := 0
	for i, c := range coord {
		if c < 0 || c >= t.dims[i] {
			panic(fmt.Sprintf("topology: coordinate %d out of range [0,%d) in dim %d", c, t.dims[i], i))
		}
		r += c * t.strides[i]
	}
	return r
}

// Directions of travel along a dimension.
const (
	Plus  = 0 // increasing coordinate
	Minus = 1 // decreasing coordinate
)

// NumChannels returns the size of a dense per-channel array: every node has
// a slot for both directions of every dimension (slots that have no physical
// link — mesh boundaries, 1-wide dimensions — simply stay unused).
func (t *Torus) NumChannels() int { return t.n * len(t.dims) * 2 }

// ChannelID returns the dense id of the directed link leaving node along
// dim in direction dir (Plus or Minus).
func (t *Torus) ChannelID(node, dim, dir int) int {
	return (node*len(t.dims)+dim)*2 + dir
}

// DecodeChannel inverts ChannelID.
func (t *Torus) DecodeChannel(ch int) (node, dim, dir int) {
	dir = ch & 1
	ch >>= 1
	dim = ch % len(t.dims)
	node = ch / len(t.dims)
	return
}

// ChannelExists reports whether the directed link leaving node along dim in
// direction dir is physically present.
func (t *Torus) ChannelExists(node, dim, dir int) bool {
	k := t.dims[dim]
	if k <= 1 {
		return false
	}
	if t.wrap[dim] {
		return true
	}
	c := (node / t.strides[dim]) % k
	if dir == Plus {
		return c < k-1
	}
	return c > 0
}

// NeighborRank returns the rank reached from node by one hop along dim in
// direction dir, applying wraparound; ok is false when no such link exists.
func (t *Torus) NeighborRank(node, dim, dir int) (next int, ok bool) {
	if !t.ChannelExists(node, dim, dir) {
		return 0, false
	}
	k := t.dims[dim]
	c := (node / t.strides[dim]) % k
	var nc int
	if dir == Plus {
		nc = c + 1
		if nc == k {
			nc = 0
		}
	} else {
		nc = c - 1
		if nc < 0 {
			nc = k - 1
		}
	}
	return node + (nc-c)*t.strides[dim], true
}

// NumLinks returns the number of physical directed links.
func (t *Torus) NumLinks() int {
	total := 0
	for d, k := range t.dims {
		if k <= 1 {
			continue
		}
		perLine := k - 1
		if t.wrap[d] {
			perLine = k
		}
		total += 2 * perLine * (t.n / k)
	}
	return total
}

// Box is an axis-aligned sub-region of a torus: the nodes with
// Origin[d] <= coord[d] < Origin[d]+Shape[d] (no wrap in the box itself;
// origins must leave the box inside the torus bounds).
type Box struct {
	Origin []int
	Shape  []int
}

// Size returns the node count of the box.
func (b Box) Size() int {
	n := 1
	for _, s := range b.Shape {
		n *= s
	}
	return n
}

// Nodes lists the ranks inside the box in local row-major order: local index
// i corresponds to the coordinate offset decodable by a mesh of shape
// b.Shape.
func (t *Torus) Nodes(b Box) []int {
	if len(b.Origin) != len(t.dims) || len(b.Shape) != len(t.dims) {
		panic("topology: box dimensionality mismatch")
	}
	for d := range b.Origin {
		if b.Origin[d] < 0 || b.Shape[d] < 1 || b.Origin[d]+b.Shape[d] > t.dims[d] {
			panic(fmt.Sprintf("topology: box dim %d origin %d shape %d exceeds torus dim %d",
				d, b.Origin[d], b.Shape[d], t.dims[d]))
		}
	}
	out := make([]int, 0, b.Size())
	coord := make([]int, len(t.dims))
	copy(coord, b.Origin)
	for {
		out = append(out, t.RankOf(coord))
		// Mixed-radix increment over the box, last dim fastest.
		d := len(coord) - 1
		for d >= 0 {
			coord[d]++
			if coord[d] < b.Origin[d]+b.Shape[d] {
				break
			}
			coord[d] = b.Origin[d]
			d--
		}
		if d < 0 {
			return out
		}
	}
}

// SubMesh returns the box as a standalone mesh topology (no wrap), plus the
// rank list aligning local mesh ranks with torus ranks (same order as Nodes).
func (t *Torus) SubMesh(b Box) (*Torus, []int) {
	return NewMesh(b.Shape...), t.Nodes(b)
}

// Hierarchy is the 2-ary n-cube decomposition RAHTM uses: every dimension
// size must be a power of two. Level 0 is the root; level NumLevels()-1 is
// the leaf. Level l consumes bit (NumLevels()-1-l) of each coordinate, so a
// dimension of size 2^b participates (with extent 2) in the b deepest
// levels and has extent 1 above them.
type Hierarchy struct {
	t    *Torus
	bits []int
	l    int
}

// NewHierarchy builds the hierarchy; it fails if any dimension size is not
// a power of two (partition such tori first, as the paper does for BG/Q's
// E dimension when needed).
func NewHierarchy(t *Torus) (*Hierarchy, error) {
	b := make([]int, t.NumDims())
	max := 0
	for d := 0; d < t.NumDims(); d++ {
		k := t.Dim(d)
		if k&(k-1) != 0 {
			return nil, fmt.Errorf("topology: dim %d size %d is not a power of two", d, k)
		}
		b[d] = bits.Len(uint(k)) - 1
		if b[d] > max {
			max = b[d]
		}
	}
	if max == 0 {
		return nil, fmt.Errorf("topology: single-node topology has no hierarchy")
	}
	return &Hierarchy{t: t, bits: b, l: max}, nil
}

// Torus returns the underlying topology.
func (h *Hierarchy) Torus() *Torus { return h.t }

// NumLevels returns the number of hierarchy levels.
func (h *Hierarchy) NumLevels() int { return h.l }

// CubeShape returns the {1,2}^n shape of the cube solved at the given level
// (0 = root).
func (h *Hierarchy) CubeShape(level int) []int {
	h.checkLevel(level)
	bit := h.l - 1 - level
	shape := make([]int, len(h.bits))
	for d, b := range h.bits {
		if b > bit {
			shape[d] = 2
		} else {
			shape[d] = 1
		}
	}
	return shape
}

// CubeSize returns the number of positions in the level's cube (2^n for n
// participating dimensions).
func (h *Hierarchy) CubeSize(level int) int {
	sz := 1
	for _, s := range h.CubeShape(level) {
		sz *= s
	}
	return sz
}

// NumCubes returns how many disjoint cubes exist at the given level
// (the product of cube sizes of all strictly shallower levels).
func (h *Hierarchy) NumCubes(level int) int {
	h.checkLevel(level)
	n := 1
	for l := 0; l < level; l++ {
		n *= h.CubeSize(l)
	}
	return n
}

// BlockShape returns the full per-dimension extent of one block at the given
// level — the box covered by a level-l cube and everything beneath it
// (2^min(bits_d, L-l) per dimension). level may equal NumLevels(), denoting
// a single node.
func (h *Hierarchy) BlockShape(level int) []int {
	if level < 0 || level > h.l {
		panic(fmt.Sprintf("topology: level %d out of range [0,%d]", level, h.l))
	}
	shape := make([]int, len(h.bits))
	for d, b := range h.bits {
		e := h.l - level
		if e > b {
			e = b
		}
		shape[d] = 1 << e
	}
	return shape
}

// ChildBlockShape returns the extent of one child block within a level-l
// cube, i.e. BlockShape(level+1), or all-ones at the leaf.
func (h *Hierarchy) ChildBlockShape(level int) []int {
	h.checkLevel(level)
	if level == h.l-1 {
		shape := make([]int, len(h.bits))
		for d := range shape {
			shape[d] = 1
		}
		return shape
	}
	return h.BlockShape(level + 1)
}

// PathOf decomposes a node rank into per-level cube positions: out[l] is the
// position of the node's block within its level-l cube, encoded row-major
// over CubeShape(l).
func (h *Hierarchy) PathOf(node int) []int {
	coord := h.t.CoordOf(node, nil)
	out := make([]int, h.l)
	for level := 0; level < h.l; level++ {
		bit := h.l - 1 - level
		pos := 0
		for d, b := range h.bits {
			if b <= bit {
				continue
			}
			pos = pos*2 + (coord[d]>>bit)&1
		}
		out[level] = pos
	}
	return out
}

// NodeFromPath inverts PathOf.
func (h *Hierarchy) NodeFromPath(path []int) int {
	if len(path) != h.l {
		panic("topology: path length mismatch")
	}
	coord := make([]int, len(h.bits))
	for level := 0; level < h.l; level++ {
		bit := h.l - 1 - level
		pos := path[level]
		// Undo the row-major encoding over participating dims.
		shape := h.CubeShape(level)
		for d := len(shape) - 1; d >= 0; d-- {
			if shape[d] != 2 {
				continue
			}
			coord[d] |= (pos & 1) << bit
			pos >>= 1
		}
	}
	return h.t.RankOf(coord)
}

// BlockBox returns the box covered by the block identified by the given
// path prefix (positions for levels 0..len(prefix)-1). An empty prefix
// yields the whole topology.
func (h *Hierarchy) BlockBox(prefix []int) Box {
	if len(prefix) > h.l {
		panic("topology: path prefix too long")
	}
	origin := make([]int, len(h.bits))
	for level, pos := range prefix {
		bit := h.l - 1 - level
		shape := h.CubeShape(level)
		for d := len(shape) - 1; d >= 0; d-- {
			if shape[d] != 2 {
				continue
			}
			origin[d] |= (pos & 1) << bit
			pos >>= 1
		}
	}
	return Box{Origin: origin, Shape: h.BlockShape(len(prefix))}
}

func (h *Hierarchy) checkLevel(level int) {
	if level < 0 || level >= h.l {
		panic(fmt.Sprintf("topology: level %d out of range [0,%d)", level, h.l))
	}
}
