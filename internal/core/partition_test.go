package core

import (
	"context"
	"testing"

	"rahtm/internal/graph"
	"rahtm/internal/routing"
	"rahtm/internal/topology"
)

func TestPowerOfTwoBoxes(t *testing.T) {
	boxes := powerOfTwoBoxes(topology.NewTorus(6, 4))
	// 6 -> 4 + 2, so two boxes: 4x4 and 2x4.
	if len(boxes) != 2 {
		t.Fatalf("boxes = %+v", boxes)
	}
	if boxes[0].Size() != 16 || boxes[1].Size() != 8 {
		t.Fatalf("box sizes = %d, %d", boxes[0].Size(), boxes[1].Size())
	}
	// Coverage: every node in exactly one box.
	tp := topology.NewTorus(6, 4)
	seen := make([]bool, tp.N())
	for _, b := range boxes {
		for _, n := range tp.Nodes(b) {
			if seen[n] {
				t.Fatalf("node %d in two boxes", n)
			}
			seen[n] = true
		}
	}
	for n, ok := range seen {
		if !ok {
			t.Fatalf("node %d uncovered", n)
		}
	}
}

func TestPowerOfTwoBoxesMultipleOddDims(t *testing.T) {
	tp := topology.NewTorus(3, 6)
	boxes := powerOfTwoBoxes(tp)
	// 3 -> 2+1; 6 -> 4+2: four boxes.
	if len(boxes) != 4 {
		t.Fatalf("boxes = %d", len(boxes))
	}
	total := 0
	for _, b := range boxes {
		total += b.Size()
	}
	if total != 18 {
		t.Fatalf("total = %d", total)
	}
}

func TestPartitionBySizes(t *testing.T) {
	// Two communities of different sizes: the cut refinement must place
	// each community whole.
	gb := graph.New(6)
	for _, e := range [][2]int{{0, 1}, {1, 2}, {2, 0}, {0, 3}} {
		gb.AddTraffic(e[0], e[1], 10)
		gb.AddTraffic(e[1], e[0], 10)
	}
	gb.AddTraffic(4, 5, 10)
	gb.AddTraffic(5, 4, 10)
	g := gb.Build()
	parts, err := partitionBySizes(g, []int{4, 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(parts[0]) != 4 || len(parts[1]) != 2 {
		t.Fatalf("part sizes = %d/%d", len(parts[0]), len(parts[1]))
	}
	// The {4,5} pair should end together (in the size-2 part given the
	// other four are tied by heavy edges).
	inSame := func(a, b int, p []int) bool {
		fa, fb := false, false
		for _, v := range p {
			if v == a {
				fa = true
			}
			if v == b {
				fb = true
			}
		}
		return fa && fb
	}
	if !inSame(4, 5, parts[0]) && !inSame(4, 5, parts[1]) {
		t.Fatalf("pair 4-5 split: %v", parts)
	}
	if _, err := partitionBySizes(g, []int{3, 2}); err == nil {
		t.Fatal("bad sizes should fail")
	}
}

func TestMapPartitionedNonPowerOfTwoTorus(t *testing.T) {
	// A 6x4 torus (24 nodes) with a 2-D halo job.
	tp := topology.NewTorus(6, 4)
	b := graph.New(24)
	id := func(i, j int) int { return i*4 + j }
	for i := 0; i < 6; i++ {
		for j := 0; j < 4; j++ {
			b.AddTraffic(id(i, j), id(i, (j+1)%4), 5)
			b.AddTraffic(id(i, j), id((i+1)%6, j), 5)
		}
	}
	g := b.Build()
	res, err := MapPartitionedCtx(context.Background(), g, tp, Config{GridDims: []int{6, 4}})
	if err != nil {
		t.Fatal(err)
	}
	if err := res.NodeMapping.Validate(24, true); err != nil {
		t.Fatal(err)
	}
	if res.MCL <= 0 {
		t.Fatalf("MCL = %v", res.MCL)
	}
	// The boxes' pipeline work is reported, not dropped.
	if st := res.Stats; st.Parallelism < 1 || st.Subproblems <= 0 || st.MapTime <= 0 {
		t.Fatalf("partitioned stats: Parallelism %d, Subproblems %d, MapTime %v", st.Parallelism, st.Subproblems, st.MapTime)
	}
	// Must beat a bad scrambled mapping.
	bad := make(topology.Mapping, 24)
	for i := range bad {
		bad[i] = (i*7 + 5) % 24
	}
	badMCL := routing.MaxChannelLoad(tp, g, bad, routing.MinimalAdaptive{})
	if res.MCL >= badMCL {
		t.Fatalf("partitioned mapping %v not better than scrambled %v", res.MCL, badMCL)
	}
}

func TestMapPartitionedDelegatesForPowerOfTwo(t *testing.T) {
	tp := topology.NewTorus(4, 4)
	gb := graph.New(16)
	gb.AddTraffic(0, 1, 5)
	g := gb.Build()
	a, err := MapPartitionedCtx(context.Background(), g, tp, Config{})
	if err != nil {
		t.Fatal(err)
	}
	b, err := MapProcessesCtx(context.Background(), g, tp, Config{})
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.NodeMapping {
		if a.NodeMapping[i] != b.NodeMapping[i] {
			t.Fatal("delegation changed the result")
		}
	}
}

func TestMapPartitionedWithConcentration(t *testing.T) {
	tp := topology.NewTorus(6, 4) // 24 nodes
	b := graph.New(48)            // concentration 2
	for i := 0; i < 48; i++ {
		b.AddTraffic(i, (i+1)%48, 3)
	}
	g := b.Build()
	res, err := MapPartitionedCtx(context.Background(), g, tp, Config{Concentration: 2})
	if err != nil {
		t.Fatal(err)
	}
	counts := make(map[int]int)
	for _, n := range res.ProcToNode {
		counts[n]++
	}
	for n, c := range counts {
		if c != 2 {
			t.Fatalf("node %d holds %d processes", n, c)
		}
	}
}

func TestMapPartitionedSingleNodeBoxes(t *testing.T) {
	// A 3-wide ring decomposes into a 2-box and a 1-box.
	tp := topology.NewTorus(3, 2)
	b := graph.New(6)
	for i := 0; i < 6; i++ {
		b.AddTraffic(i, (i+1)%6, 1)
	}
	g := b.Build()
	res, err := MapPartitionedCtx(context.Background(), g, tp, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if err := res.NodeMapping.Validate(6, true); err != nil {
		t.Fatal(err)
	}
}

func TestMapPartitionedSizeMismatch(t *testing.T) {
	tp := topology.NewTorus(6, 4)
	if _, err := MapPartitionedCtx(context.Background(), graph.New(23).Build(), tp, Config{}); err == nil {
		t.Fatal("expected size mismatch error")
	}
}
