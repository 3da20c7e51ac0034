package merge

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"rahtm/internal/graph"
	"rahtm/internal/topology"
)

func TestRepositionOverridesBadPins(t *testing.T) {
	// Two heavy pairs pinned apart: with repositioning the merge can put
	// each pair's blocks adjacent regardless of the pins.
	b := graph.New(4)
	b.AddTraffic(0, 1, 100)
	b.AddTraffic(2, 3, 100)
	g := b.Build()
	blocks := singleTaskBlocks(4, 2)
	// Pins separate the pairs onto diagonals: 0@0, 1@3, 2@1, 3@2.
	badPins := []int{0, 3, 1, 2}
	pinned, err := MergeCtx(context.Background(), g, blocks, []int{2, 2}, badPins, Config{}, math.Inf(1))
	if err != nil {
		t.Fatal(err)
	}
	free, err := MergeCtx(context.Background(), g, blocks, []int{2, 2}, badPins, Config{Reposition: true}, math.Inf(1))
	if err != nil {
		t.Fatal(err)
	}
	if free.Candidates[0].MCL > pinned.Candidates[0].MCL {
		t.Fatalf("repositioning (%v) lost to pinned (%v)",
			free.Candidates[0].MCL, pinned.Candidates[0].MCL)
	}
	// With freedom, each pair can sit adjacent: heavy flows at distance 1,
	// MCL 100 on separate links... but diagonal split gives 50. Either
	// way, strictly better than the pinned diagonal arrangement is not
	// guaranteed (diagonals split too); assert validity instead.
	for _, cand := range free.Candidates {
		if err := cand.Local.Validate(4, true); err != nil {
			t.Fatal(err)
		}
	}
}

func TestRepositionProducesValidPermutations(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	gb := graph.New(8)
	for e := 0; e < 14; e++ {
		gb.AddTraffic(rng.Intn(8), rng.Intn(8), float64(1+rng.Intn(9)))
	}
	g := gb.Build()
	a := NewLeafBlock([]int{0, 1, 2, 3}, []int{2, 2}, topology.Mapping{0, 1, 2, 3}, 0)
	b := NewLeafBlock([]int{4, 5, 6, 7}, []int{2, 2}, topology.Mapping{0, 1, 2, 3}, 0)
	merged, err := MergeCtx(context.Background(), g, []*Block{a, b}, []int{2, 1}, []int{0, 1}, Config{Reposition: true}, math.Inf(1))
	if err != nil {
		t.Fatal(err)
	}
	for _, cand := range merged.Candidates {
		if err := cand.Local.Validate(8, true); err != nil {
			t.Fatal(err)
		}
	}
}

func TestRepositionNeverWorseThanPinned(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 8; trial++ {
		b := graph.New(4)
		for e := 0; e < 6; e++ {
			b.AddTraffic(rng.Intn(4), rng.Intn(4), float64(1+rng.Intn(9)))
		}
		g := b.Build()
		blocks := singleTaskBlocks(4, 2)
		pins := rng.Perm(4)
		pinned, err := MergeCtx(context.Background(), g, blocks, []int{2, 2}, pins, Config{}, math.Inf(1))
		if err != nil {
			t.Fatal(err)
		}
		free, err := MergeCtx(context.Background(), g, blocks, []int{2, 2}, pins, Config{Reposition: true}, math.Inf(1))
		if err != nil {
			t.Fatal(err)
		}
		if free.Candidates[0].MCL > pinned.Candidates[0].MCL+1e-9 {
			t.Fatalf("trial %d: reposition %v worse than pinned %v",
				trial, free.Candidates[0].MCL, pinned.Candidates[0].MCL)
		}
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
	serial, err := MergeCtx(context.Background(), g, mk(), []int{2, 1}, []int{0, 1}, Config{Parallelism: 1}, math.Inf(1))
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := MergeCtx(context.Background(), g, mk(), []int{2, 1}, []int{0, 1}, Config{Parallelism: 8}, math.Inf(1))
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

func TestRepositionCubeTooLarge(t *testing.T) {
	// 128 single-task children on a 2^7 cube exceed the bitmask width.
	n := 128
	g := graph.New(n).Build()
	shape := []int{1, 1, 1, 1, 1, 1, 1}
	blocks := make([]*Block, n)
	pins := make([]int, n)
	for i := range blocks {
		blocks[i] = NewLeafBlock([]int{i}, shape, topology.Mapping{0}, 0)
		pins[i] = i
	}
	cube := []int{2, 2, 2, 2, 2, 2, 2}
	if _, err := MergeCtx(context.Background(), g, blocks, cube, pins, Config{Reposition: true}, math.Inf(1)); err == nil {
		t.Fatal("expected error for oversized reposition cube")
	}
}
