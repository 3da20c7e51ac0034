package merge

import (
	"context"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"rahtm/internal/graph"
	"rahtm/internal/routing"
	"rahtm/internal/topology"
)

func TestOrientationCounts(t *testing.T) {
	cases := []struct {
		shape []int
		want  int
	}{
		{[]int{2}, 2},
		{[]int{2, 2}, 8},     // dihedral group of the square
		{[]int{2, 1}, 2},     // only flips of the wide dim
		{[]int{2, 2, 2}, 48}, // full hyperoctahedral group B3
		{[]int{4, 2}, 4},     // no dim swap, two flips
		{[]int{1, 1}, 1},
		{[]int{4, 4}, 8},
	}
	for _, c := range cases {
		if got := len(Orientations(c.shape)); got != c.want {
			t.Errorf("Orientations(%v) = %d, want %d", c.shape, got, c.want)
		}
	}
}

func TestOrientationsArePermutationsOfPositions(t *testing.T) {
	for _, shape := range [][]int{{2, 2}, {2, 2, 2}, {4, 2}, {2, 1, 2}} {
		size := 1
		for _, s := range shape {
			size *= s
		}
		for _, o := range Orientations(shape) {
			seen := make([]bool, size)
			for p := 0; p < size; p++ {
				q := o.Apply(shape, p)
				if q < 0 || q >= size || seen[q] {
					t.Fatalf("shape %v orientation %+v is not a bijection", shape, o)
				}
				seen[q] = true
			}
		}
	}
}

func TestOrientationIdentityPresent(t *testing.T) {
	shape := []int{2, 2}
	found := false
	for _, o := range Orientations(shape) {
		id := true
		for p := 0; p < 4; p++ {
			if o.Apply(shape, p) != p {
				id = false
				break
			}
		}
		if id {
			found = true
		}
	}
	if !found {
		t.Fatal("identity orientation missing")
	}
}

func TestOrientationFlipOneDim(t *testing.T) {
	o := Orientation{Perm: []int{0, 1}, Flip: []bool{false, true}}
	shape := []int{2, 2}
	// (0,0)->(0,1): pos 0 -> 1; (1,1)->(1,0): pos 3 -> 2.
	if o.Apply(shape, 0) != 1 || o.Apply(shape, 3) != 2 {
		t.Fatalf("flip wrong: 0->%d, 3->%d", o.Apply(shape, 0), o.Apply(shape, 3))
	}
}

// singleTaskBlocks builds 1-task blocks for tasks 0..n-1.
func singleTaskBlocks(n int, nd int) []*Block {
	shape := make([]int, nd)
	for d := range shape {
		shape[d] = 1
	}
	out := make([]*Block, n)
	for i := range out {
		out[i] = NewLeafBlock([]int{i}, shape, topology.Mapping{0}, 0)
	}
	return out
}

func TestMergeSingleTaskChildrenHonorsPins(t *testing.T) {
	b := graph.New(4)
	b.AddTraffic(0, 1, 1)
	g := b.Build()
	blocks := singleTaskBlocks(4, 2)
	childPos := []int{3, 2, 1, 0} // task i pinned to position 3-i
	merged, err := MergeCtx(context.Background(), g, blocks, topology.NewMesh(2, 2), childPos, Config{}, 1, math.Inf(1))
	if err != nil {
		t.Fatal(err)
	}
	best := merged.Candidates[0]
	for task := 0; task < 4; task++ {
		if best.Local[task] != 3-task {
			t.Fatalf("task %d at %d, want %d (mapping %v)", task, best.Local[task], 3-task, best.Local)
		}
	}
}

func TestMergeMCLMatchesDirectEvaluation(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 10; trial++ {
		b := graph.New(4)
		for e := 0; e < 5; e++ {
			b.AddTraffic(rng.Intn(4), rng.Intn(4), float64(1+rng.Intn(9)))
		}
		g := b.Build()
		blocks := singleTaskBlocks(4, 2)
		merged, err := MergeCtx(context.Background(), g, blocks, topology.NewMesh(2, 2), []int{0, 1, 2, 3}, Config{}, 1, math.Inf(1))
		if err != nil {
			t.Fatal(err)
		}
		mesh := topology.NewMesh(2, 2)
		for _, cand := range merged.Candidates {
			direct := routing.MaxChannelLoad(mesh, g, cand.Local, routing.MinimalAdaptive{})
			if math.Abs(direct-cand.MCL) > 1e-9 {
				t.Fatalf("trial %d: candidate MCL %v, direct %v", trial, cand.MCL, direct)
			}
		}
	}
}

func TestMergeBestEqualsOrientationBruteForce(t *testing.T) {
	// Two 2x1 blocks side by side: the beam search over orientations must
	// find the same optimum as brute force over orientation pairs.
	rng := rand.New(rand.NewSource(4))
	for trial := 0; trial < 8; trial++ {
		gb := graph.New(4)
		for e := 0; e < 6; e++ {
			gb.AddTraffic(rng.Intn(4), rng.Intn(4), float64(1+rng.Intn(9)))
		}
		g := gb.Build()
		a := NewLeafBlock([]int{0, 1}, []int{1, 2}, topology.Mapping{0, 1}, 0)
		b := NewLeafBlock([]int{2, 3}, []int{1, 2}, topology.Mapping{0, 1}, 0)
		merged, err := MergeCtx(context.Background(), g, []*Block{a, b}, topology.NewMesh(2, 2), []int{0, 1}, Config{BeamWidth: 64}, 1, math.Inf(1))
		if err != nil {
			t.Fatal(err)
		}
		// Brute force: all orientation pairs of the two blocks.
		mesh := topology.NewMesh(2, 2)
		orients := Orientations([]int{1, 2})
		best := math.Inf(1)
		for _, oa := range orients {
			for _, ob := range orients {
				m := make(topology.Mapping, 4)
				// Block a at origin (0,*), block b at origin (1,*).
				m[0] = oa.Apply([]int{1, 2}, 0)
				m[1] = oa.Apply([]int{1, 2}, 1)
				m[2] = 2 + ob.Apply([]int{1, 2}, 0)
				m[3] = 2 + ob.Apply([]int{1, 2}, 1)
				mcl := routing.MaxChannelLoad(mesh, g, m, routing.MinimalAdaptive{})
				if mcl < best {
					best = mcl
				}
			}
		}
		if math.Abs(merged.Candidates[0].MCL-best) > 1e-9 {
			t.Fatalf("trial %d: merge best %v, brute force %v", trial, merged.Candidates[0].MCL, best)
		}
	}
}

func TestMergeBeamWidthRespected(t *testing.T) {
	b := graph.New(4)
	b.AddTraffic(0, 1, 1)
	g := b.Build()
	blocks := singleTaskBlocks(4, 2)
	merged, err := MergeCtx(context.Background(), g, blocks, topology.NewMesh(2, 2), []int{0, 1, 2, 3}, Config{BeamWidth: 3}, 1, math.Inf(1))
	if err != nil {
		t.Fatal(err)
	}
	if len(merged.Candidates) > 3 {
		t.Fatalf("beam width violated: %d candidates", len(merged.Candidates))
	}
	// Candidates must be sorted ascending by MCL.
	for i := 1; i < len(merged.Candidates); i++ {
		if merged.Candidates[i].MCL < merged.Candidates[i-1].MCL-1e-12 {
			t.Fatal("candidates not sorted by MCL")
		}
	}
}

func TestMergeValidatesInput(t *testing.T) {
	g := graph.New(16).Build()
	blocks := singleTaskBlocks(4, 2)
	wide := make([]*Block, 4) // 2x2 children of 4 tasks each
	for i := range wide {
		wide[i] = NewLeafBlock([]int{4 * i, 4*i + 1, 4*i + 2, 4*i + 3}, []int{2, 2}, topology.Mapping{0, 1, 2, 3}, 0)
	}
	for _, tc := range []struct {
		name     string
		children []*Block
		parent   *topology.Torus
		pos      []int
	}{
		{"3 children for a 4-cube", blocks[:3], topology.NewMesh(2, 2), []int{0, 1, 2}},
		{"duplicate positions", blocks, topology.NewMesh(2, 2), []int{0, 1, 2, 2}},
		{"3x2 cube", blocks, topology.NewMesh(3, 2), []int{0, 1, 2, 3}},
		{"no children", nil, topology.NewMesh(2, 2), nil},
		{"parent dimensionality differs", blocks, topology.NewMesh(2, 2, 1), []int{0, 1, 2, 3}},
		{"parent extent 1.5x the child's", wide, topology.NewTorus(3, 4), []int{0, 1, 2, 3}},
	} {
		if _, err := MergeCtx(context.Background(), g, tc.children, tc.parent, tc.pos, Config{}, 1, math.Inf(1)); err == nil {
			t.Errorf("%s: want an error", tc.name)
		}
	}
}

func TestMergedMappingIsInjective(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	gb := graph.New(8)
	for e := 0; e < 16; e++ {
		gb.AddTraffic(rng.Intn(8), rng.Intn(8), float64(1+rng.Intn(5)))
	}
	g := gb.Build()
	// Two 2x2 blocks merged along a 2x1 cube into a 4x2 parent.
	a := NewLeafBlock([]int{0, 1, 2, 3}, []int{2, 2}, topology.Mapping{0, 1, 2, 3}, 0)
	b := NewLeafBlock([]int{4, 5, 6, 7}, []int{2, 2}, topology.Mapping{3, 2, 1, 0}, 0)
	merged, err := MergeCtx(context.Background(), g, []*Block{a, b}, topology.NewMesh(4, 2), []int{1, 0}, Config{}, 1, math.Inf(1))
	if err != nil {
		t.Fatal(err)
	}
	if merged.Shape[0] != 4 || merged.Shape[1] != 2 {
		t.Fatalf("merged shape = %v", merged.Shape)
	}
	for _, cand := range merged.Candidates {
		if err := cand.Local.Validate(8, true); err != nil {
			t.Fatalf("candidate not injective: %v", err)
		}
	}
}

func TestMergeTorusEvaluation(t *testing.T) {
	// At the root the parent is a torus: a flow between opposite corners of
	// a 2x2 torus splits over double links, so MCL is half the mesh value.
	b := graph.New(4)
	b.AddTraffic(0, 1, 8)
	g := b.Build()
	blocks := singleTaskBlocks(4, 2)
	meshRes, err := MergeCtx(context.Background(), g, blocks, topology.NewMesh(2, 2), []int{0, 1, 2, 3}, Config{}, 1, math.Inf(1))
	if err != nil {
		t.Fatal(err)
	}
	torusRes, err := MergeCtx(context.Background(), g, blocks, topology.NewTorus(2, 2), []int{0, 1, 2, 3}, Config{}, 1, math.Inf(1))
	if err != nil {
		t.Fatal(err)
	}
	if torusRes.Candidates[0].MCL >= meshRes.Candidates[0].MCL {
		t.Fatalf("torus MCL %v should beat mesh MCL %v (extra links)",
			torusRes.Candidates[0].MCL, meshRes.Candidates[0].MCL)
	}
}

func TestParallelMergeDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	gb := graph.New(8)
	for e := 0; e < 20; e++ {
		gb.AddTraffic(rng.Intn(8), rng.Intn(8), float64(1+rng.Intn(9)))
	}
	g := gb.Build()
	mk := func() []*Block {
		a := NewLeafBlock([]int{0, 1, 2, 3}, []int{2, 2}, topology.Mapping{0, 1, 2, 3}, 0)
		b := NewLeafBlock([]int{4, 5, 6, 7}, []int{2, 2}, topology.Mapping{3, 2, 1, 0}, 0)
		return []*Block{a, b}
	}
	serial, err := MergeCtx(context.Background(), g, mk(), topology.NewMesh(4, 2), []int{0, 1}, Config{}, 1, math.Inf(1))
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := MergeCtx(context.Background(), g, mk(), topology.NewMesh(4, 2), []int{0, 1}, Config{}, 8, math.Inf(1))
	if err != nil {
		t.Fatal(err)
	}
	if len(serial.Candidates) != len(parallel.Candidates) {
		t.Fatalf("candidate counts differ: %d vs %d", len(serial.Candidates), len(parallel.Candidates))
	}
	for i := range serial.Candidates {
		if math.Abs(serial.Candidates[i].MCL-parallel.Candidates[i].MCL) > 1e-12 {
			t.Fatalf("candidate %d MCL differs: %v vs %v",
				i, serial.Candidates[i].MCL, parallel.Candidates[i].MCL)
		}
		for j := range serial.Candidates[i].Local {
			if serial.Candidates[i].Local[j] != parallel.Candidates[i].Local[j] {
				t.Fatalf("candidate %d mapping differs at %d", i, j)
			}
		}
	}
}

// Property: Apply of every orientation preserves pairwise L1 distances
// within the box (orientations are isometries).
func TestQuickOrientationsAreIsometries(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		shapes := [][]int{{2, 2}, {2, 2, 2}, {4, 2}, {2, 4, 2}}
		shape := shapes[rng.Intn(len(shapes))]
		size := 1
		for _, s := range shape {
			size *= s
		}
		mesh := topology.NewMesh(shape...)
		os := Orientations(shape)
		o := os[rng.Intn(len(os))]
		a, b := rng.Intn(size), rng.Intn(size)
		return mesh.MinDistance(a, b) == mesh.MinDistance(o.Apply(shape, a), o.Apply(shape, b))
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestApplyFastMatchesApply is the property test for the allocation-free
// orientation path: applyFast must agree with Apply on every position of
// every orientation for 2-D, 3-D and 4-D boxes and for the 16k top-level
// child shape 4x4x4x4x2.
func TestApplyFastMatchesApply(t *testing.T) {
	shapes := [][]int{
		{4, 4},
		{2, 3},
		{2, 2, 2},
		{4, 2, 3},
		{2, 2, 2, 2},
		{3, 2, 2, 1},
		{4, 4, 4, 4, 2},
	}
	for _, shape := range shapes {
		n := 1
		for _, k := range shape {
			n *= k
		}
		for oi, o := range Orientations(shape) {
			seen := make([]bool, n)
			for pos := 0; pos < n; pos++ {
				fast := o.applyFast(shape, pos)
				slow := o.Apply(shape, pos)
				if fast != slow {
					t.Fatalf("shape %v orientation %d pos %d: applyFast %d, Apply %d",
						shape, oi, pos, fast, slow)
				}
				if fast < 0 || fast >= n || seen[fast] {
					t.Fatalf("shape %v orientation %d pos %d: image %d not a fresh position",
						shape, oi, pos, fast)
				}
				seen[fast] = true
			}
		}
	}
}
