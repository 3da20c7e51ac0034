package topology

import (
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
)

func TestRankCoordRoundTrip(t *testing.T) {
	topos := []*Torus{
		NewTorus(4, 4, 4, 4, 2),
		NewMesh(3, 5),
		NewTorus(2),
		NewMixed([]int{4, 2, 3}, []bool{true, false, true}),
	}
	for _, tp := range topos {
		for r := 0; r < tp.N(); r++ {
			c := tp.CoordOf(r, nil)
			if got := tp.RankOf(c); got != r {
				t.Fatalf("%v: RankOf(CoordOf(%d)) = %d", tp, r, got)
			}
		}
	}
}

func TestTorusBasics(t *testing.T) {
	tp := NewTorus(4, 4, 4, 4, 2)
	if tp.N() != 512 {
		t.Fatalf("N = %d, want 512", tp.N())
	}
	if tp.NumDims() != 5 {
		t.Fatalf("NumDims = %d", tp.NumDims())
	}
	if !tp.Wrap(0) || !tp.Wrap(4) {
		t.Fatal("expected all dims wrapped")
	}
	if tp.String() != "torus(4x4x4x4x2)" {
		t.Fatalf("String = %q", tp.String())
	}
	if NewMesh(2, 2).String() != "mesh(2x2)" {
		t.Fatalf("mesh String = %q", NewMesh(2, 2).String())
	}
}

func TestNumLinks(t *testing.T) {
	// 4-cycle: 8 directed links.
	if got := NewTorus(4).NumLinks(); got != 8 {
		t.Fatalf("ring links = %d, want 8", got)
	}
	// 4-node line: 6 directed links.
	if got := NewMesh(4).NumLinks(); got != 6 {
		t.Fatalf("line links = %d, want 6", got)
	}
	// 2x2 torus: each dim contributes 2 lines x 2 links x 2 dirs = 8 -> 16.
	if got := NewTorus(2, 2).NumLinks(); got != 16 {
		t.Fatalf("2x2 torus links = %d, want 16", got)
	}
	// 2x2 mesh: 4 undirected edges -> 8 directed.
	if got := NewMesh(2, 2).NumLinks(); got != 8 {
		t.Fatalf("2x2 mesh links = %d, want 8", got)
	}
}

func TestChannelExistsAndNeighbor(t *testing.T) {
	m := NewMesh(3)
	// Node 0: Plus exists, Minus does not.
	if !m.ChannelExists(0, 0, Plus) || m.ChannelExists(0, 0, Minus) {
		t.Fatal("mesh boundary channels wrong at node 0")
	}
	if m.ChannelExists(2, 0, Plus) || !m.ChannelExists(2, 0, Minus) {
		t.Fatal("mesh boundary channels wrong at node 2")
	}
	tor := NewTorus(3)
	nxt, ok := tor.NeighborRank(2, 0, Plus)
	if !ok || nxt != 0 {
		t.Fatalf("wraparound neighbor = %d/%v, want 0/true", nxt, ok)
	}
	nxt, ok = tor.NeighborRank(0, 0, Minus)
	if !ok || nxt != 2 {
		t.Fatalf("wraparound neighbor = %d/%v, want 2/true", nxt, ok)
	}
	if _, ok := m.NeighborRank(2, 0, Plus); ok {
		t.Fatal("mesh edge off the end exists")
	}
}

func TestChannelIDRoundTrip(t *testing.T) {
	tp := NewTorus(4, 2, 3)
	seen := make(map[int]bool)
	for node := 0; node < tp.N(); node++ {
		for dim := 0; dim < tp.NumDims(); dim++ {
			for dir := 0; dir < 2; dir++ {
				id := tp.ChannelID(node, dim, dir)
				if id < 0 || id >= tp.NumChannels() {
					t.Fatalf("channel id %d out of range", id)
				}
				if seen[id] {
					t.Fatalf("duplicate channel id %d", id)
				}
				seen[id] = true
				n2, d2, s2 := tp.DecodeChannel(id)
				if n2 != node || d2 != dim || s2 != dir {
					t.Fatalf("DecodeChannel(%d) = (%d,%d,%d), want (%d,%d,%d)", id, n2, d2, s2, node, dim, dir)
				}
			}
		}
	}
}

func TestOneWideDimensionHasNoChannels(t *testing.T) {
	tp := NewTorus(4, 1)
	for node := 0; node < tp.N(); node++ {
		if tp.ChannelExists(node, 1, Plus) || tp.ChannelExists(node, 1, Minus) {
			t.Fatal("1-wide dimension should have no links")
		}
	}
}

func TestBoxNodes(t *testing.T) {
	tp := NewTorus(4, 4)
	b := Box{Origin: []int{2, 2}, Shape: []int{2, 2}}
	nodes := tp.Nodes(b)
	want := []int{10, 11, 14, 15} // coords (2,2),(2,3),(3,2),(3,3)
	if len(nodes) != 4 {
		t.Fatalf("box nodes = %v", nodes)
	}
	for i := range want {
		if nodes[i] != want[i] {
			t.Fatalf("box nodes = %v, want %v", nodes, want)
		}
	}
	if b.Size() != 4 {
		t.Fatalf("box size = %d", b.Size())
	}
}

func TestSubMeshAlignment(t *testing.T) {
	tp := NewTorus(4, 4)
	b := Box{Origin: []int{0, 2}, Shape: []int{2, 2}}
	mesh, ranks := tp.SubMesh(b)
	if mesh.N() != 4 || mesh.Wrap(0) || mesh.Wrap(1) {
		t.Fatalf("submesh = %v", mesh)
	}
	// Local rank 3 = local coord (1,1) = torus coord (1,3) = rank 7.
	if ranks[3] != 7 {
		t.Fatalf("ranks = %v", ranks)
	}
}

func TestHierarchyBGQLike(t *testing.T) {
	tp := NewTorus(4, 4, 4, 4, 2)
	h, err := NewHierarchy(tp)
	if err != nil {
		t.Fatal(err)
	}
	if h.NumLevels() != 2 {
		t.Fatalf("NumLevels = %d, want 2", h.NumLevels())
	}
	// Root level: only the 4-wide dims participate (bit 1).
	root := h.CubeShape(0)
	want := []int{2, 2, 2, 2, 1}
	for d := range want {
		if root[d] != want[d] {
			t.Fatalf("root cube shape = %v, want %v", root, want)
		}
	}
	if h.CubeSize(0) != 16 {
		t.Fatalf("root cube size = %d", h.CubeSize(0))
	}
	// Leaf level: every dim participates.
	leaf := h.CubeShape(1)
	for d := 0; d < 5; d++ {
		if leaf[d] != 2 {
			t.Fatalf("leaf cube shape = %v", leaf)
		}
	}
	if h.CubeSize(1) != 32 {
		t.Fatalf("leaf cube size = %d", h.CubeSize(1))
	}
	if h.NumCubes(0) != 1 || h.NumCubes(1) != 16 {
		t.Fatalf("NumCubes = %d/%d", h.NumCubes(0), h.NumCubes(1))
	}
	// 16 root positions x 32 leaf positions = 512 nodes.
	if h.CubeSize(0)*h.CubeSize(1) != tp.N() {
		t.Fatal("hierarchy does not cover the torus")
	}
}

func TestHierarchyRejectsNonPowerOfTwo(t *testing.T) {
	if _, err := NewHierarchy(NewTorus(3, 4)); err == nil {
		t.Fatal("expected error for 3-wide dim")
	}
	if _, err := NewHierarchy(NewTorus(1)); err == nil {
		t.Fatal("expected error for single-node topology")
	}
}

func TestPathRoundTrip(t *testing.T) {
	for _, tp := range []*Torus{NewTorus(4, 4), NewTorus(4, 4, 4), NewTorus(4, 4, 4, 4, 2), NewTorus(8, 2)} {
		h, err := NewHierarchy(tp)
		if err != nil {
			t.Fatal(err)
		}
		for node := 0; node < tp.N(); node++ {
			p := h.PathOf(node)
			if got := h.NodeFromPath(p); got != node {
				t.Fatalf("%v: NodeFromPath(PathOf(%d)) = %d (path %v)", tp, node, got, p)
			}
		}
	}
}

func TestBlockBox(t *testing.T) {
	tp := NewTorus(4, 4)
	h, _ := NewHierarchy(tp)
	// Whole topology.
	whole := h.BlockBox(nil)
	if whole.Size() != 16 {
		t.Fatalf("whole box size = %d", whole.Size())
	}
	// Root position 3 = root coords (1,1) -> origin (2,2), shape (2,2).
	b := h.BlockBox([]int{3})
	if b.Origin[0] != 2 || b.Origin[1] != 2 || b.Shape[0] != 2 || b.Shape[1] != 2 {
		t.Fatalf("block box = %+v", b)
	}
	// Full path identifies exactly one node.
	for node := 0; node < tp.N(); node++ {
		bb := h.BlockBox(h.PathOf(node))
		if bb.Size() != 1 {
			t.Fatalf("full-path box size = %d", bb.Size())
		}
		if tp.Nodes(bb)[0] != node {
			t.Fatalf("full-path box = %+v for node %d", bb, node)
		}
	}
}

func TestBlockShapes(t *testing.T) {
	tp := NewTorus(4, 4, 2)
	h, _ := NewHierarchy(tp)
	// Level 0 block = whole torus; level 1 block = leaf cube; level 2 = node.
	if got := h.BlockShape(0); got[0] != 4 || got[1] != 4 || got[2] != 2 {
		t.Fatalf("BlockShape(0) = %v", got)
	}
	if got := h.BlockShape(1); got[0] != 2 || got[1] != 2 || got[2] != 2 {
		t.Fatalf("BlockShape(1) = %v", got)
	}
	if got := h.BlockShape(2); got[0] != 1 || got[1] != 1 || got[2] != 1 {
		t.Fatalf("BlockShape(2) = %v", got)
	}
	if got := h.ChildBlockShape(1); got[0] != 1 || got[2] != 1 {
		t.Fatalf("ChildBlockShape(1) = %v", got)
	}
	if got := h.ChildBlockShape(0); got[0] != 2 {
		t.Fatalf("ChildBlockShape(0) = %v", got)
	}
}

// Property: every node lands in exactly the block box of its own path
// prefix, for random topologies.
func TestQuickPathPrefixContainsNode(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		nd := 1 + rng.Intn(4)
		dims := make([]int, nd)
		for i := range dims {
			dims[i] = 1 << (1 + rng.Intn(3)) // 2,4,8
		}
		tp := NewTorus(dims...)
		h, err := NewHierarchy(tp)
		if err != nil {
			return false
		}
		node := rng.Intn(tp.N())
		path := h.PathOf(node)
		for plen := 0; plen <= len(path); plen++ {
			box := h.BlockBox(path[:plen])
			found := false
			for _, r := range tp.Nodes(box) {
				if r == node {
					found = true
					break
				}
			}
			if !found {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Property: channel ids are a bijection onto [0, NumChannels).
func TestQuickChannelBijection(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		nd := 1 + rng.Intn(3)
		dims := make([]int, nd)
		for i := range dims {
			dims[i] = 1 + rng.Intn(5)
		}
		tp := NewTorus(dims...)
		id := rng.Intn(tp.NumChannels())
		n, d, s := tp.DecodeChannel(id)
		return tp.ChannelID(n, d, s) == id
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestParseDims(t *testing.T) {
	for spec, want := range map[string][]int{
		"16x16":     {16, 16},
		"4x4x4x4x2": {4, 4, 4, 4, 2},
		" 8X2 ":     {8, 2},
		"7":         {7},
	} {
		got, err := ParseDims(spec)
		if err != nil || !reflect.DeepEqual(got, want) {
			t.Fatalf("ParseDims(%q) = %v, %v; want %v", spec, got, err, want)
		}
	}
	// String's dimension list parses back to the same topology.
	tp := NewTorus(4, 2, 3)
	s := tp.String()
	dims, err := ParseDims(s[strings.IndexByte(s, '(')+1 : len(s)-1])
	if err != nil || !reflect.DeepEqual(dims, tp.Dims()) {
		t.Fatalf("ParseDims(%s) = %v, %v", s, dims, err)
	}
	for _, bad := range []string{"", "x", "4x", "axb", "4x0", "-2"} {
		if _, err := ParseDims(bad); err == nil {
			t.Fatalf("ParseDims(%q) should fail", bad)
		}
	}
}
