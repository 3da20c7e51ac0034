package merge

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"rahtm/internal/graph"
	"rahtm/internal/telemetry"
	"rahtm/internal/topology"
)

// TestScreenByteIdentical holds the channel-subset prescreen to the dense,
// unpruned, fully sorted reference on a channel space it screens (a
// 4x4x4x4 torus, 2,048 channels), at Parallelism 1 and 8, and requires it
// to have rejected combos at Parallelism 1.
func TestScreenByteIdentical(t *testing.T) {
	const nchild, tpc = 16, 16
	rng := rand.New(rand.NewSource(24))
	b := graph.New(nchild * tpc)
	for e := 0; e < 4*nchild*tpc; e++ {
		b.AddTraffic(rng.Intn(nchild*tpc), rng.Intn(nchild*tpc), float64(1+rng.Intn(9)))
	}
	g := b.Build()
	pins := rng.Perm(nchild)
	childShape := []int{2, 2, 2, 2}
	parent := topology.NewTorus(4, 4, 4, 4)
	cfg := Config{BeamWidth: 16, ChildCandidates: 1, MaxOrientations: 48, MaxPairEvals: 64}
	m, err := newMerger(context.Background(), g, deltaChildren(t, g, nchild, tpc, childShape), parent, pins, cfg, 1)
	if err != nil {
		t.Fatal(err)
	}
	if m.parent.NumChannels() < minScreenChans {
		t.Fatalf("%d channels: the prescreen does not run below %d", m.parent.NumChannels(), minScreenChans)
	}
	want := denseMerge(m)
	for _, par := range []int{1, 8} {
		label := fmt.Sprintf("par=%d", par)
		reg := telemetry.NewRegistry()
		ctx := telemetry.WithScope(context.Background(), &telemetry.Scope{Reg: reg})
		got, err := MergeCtx(ctx, g, deltaChildren(t, g, nchild, tpc, childShape), parent, pins, cfg, par, math.Inf(1))
		if err != nil {
			t.Fatal(err)
		}
		wantSameBlock(t, want, got, label)
		if screened := reg.Snapshot().Counter(telemetry.CtrBeamScreenSkips); par == 1 && screened <= 0 {
			t.Errorf("%s: the prescreen rejected %d combinations, want > 0", label, screened)
		}
	}
}
