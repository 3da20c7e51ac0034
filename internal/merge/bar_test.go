package merge

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"rahtm/internal/graph"
	"rahtm/internal/routing"
	"rahtm/internal/topology"
)

// childFloors is the reference for floorAboveBar: per child, the lowest
// peak of its internal loads over its (candidate, orientation) pairs at its
// pinned position, each deposited densely from a zeroed vector.
func childFloors(m *merger) []float64 {
	out := make([]float64, len(m.children))
	loads := make([]float64, m.parent.NumChannels())
	for ci, c := range m.children {
		out[ci] = math.Inf(1)
		for k := 0; k < min(len(c.Candidates), m.cfg.ChildCandidates); k++ {
			for _, o := range m.orients {
				clear(loads)
				m.addFlows(c.Tasks, m.placement(ci, c.Candidates[k], o), loads)
				out[ci] = min(out[ci], routing.MCL(loads))
			}
		}
	}
	return out
}

// barsAround returns distinct bars at, just below, just above and between
// the given MCLs, plus one below and one above them all: all of them, or a
// stride sample of about 16 keeping the lowest and the highest.
func barsAround(mcls []float64) []float64 {
	vs := slices.Clone(mcls)
	slices.Sort(vs)
	vs = slices.Compact(vs)
	bars := []float64{0, vs[0] / 2, 2 * vs[len(vs)-1]}
	for i, v := range vs {
		bars = append(bars, v, math.Nextafter(v, math.Inf(-1)), math.Nextafter(v, math.Inf(1)))
		if i > 0 {
			bars = append(bars, (vs[i-1]+v)/2)
		}
	}
	slices.Sort(bars)
	bars = slices.Compact(bars)
	stride := (len(bars) + 15) / 16
	var out []float64
	for i := 0; i < len(bars); i += stride {
		out = append(out, bars[i])
	}
	if out[len(out)-1] != bars[len(bars)-1] {
		out = append(out, bars[len(bars)-1])
	}
	return out
}

// TestMergeBarCutsUnbarredBeam checks the bar against the unbarred merge
// on seeded merges, with and without MaxOrientations subsampling: at bars
// at, between and around the unbarred beam's MCLs and the children's
// floors, MergeCtx returns exactly the unbarred beam's states at or below
// the bar (same mappings, MCL bits and order), and a block without
// candidates when there are none. Such a block reports the floor check
// (BarSteps 0) exactly when some child's floor is above the bar, and
// otherwise the step that left no state.
func TestMergeBarCutsUnbarredBeam(t *testing.T) {
	scenarios := []struct {
		name                  string
		childShape, cubeShape []int
		torus                 bool
		orients, seeds        int
	}{
		{"mesh-4x4x4-orient8", []int{2, 2, 2}, []int{2, 2, 2}, false, 8, 2},
		{"torus-4x4x2", []int{2, 2, 2}, []int{2, 2, 1}, true, 0, 1},
	}
	var stops [2]int // stops by the floor check, by a step
	for _, sc := range scenarios {
		for seed := int64(1); seed <= int64(sc.seeds); seed++ {
			nchild, tpc := 1, 1
			for d := range sc.cubeShape {
				nchild *= sc.cubeShape[d]
				tpc *= sc.childShape[d]
			}
			n := nchild * tpc
			rng := rand.New(rand.NewSource(seed))
			b := graph.New(n)
			for e := 0; e < 3*n; e++ {
				b.AddTraffic(rng.Intn(n), rng.Intn(n), float64(1+rng.Intn(9)))
			}
			g := b.Build()
			pins := rng.Perm(nchild)
			parent := parentTopo(sc.cubeShape, sc.childShape, sc.torus)
			for _, bw := range []int{4, 16} {
				cfg := Config{BeamWidth: bw, ChildCandidates: 2, MaxOrientations: sc.orients}
				children := deltaChildren(t, g, nchild, tpc, sc.childShape)
				label := fmt.Sprintf("%s seed=%d bw=%d", sc.name, seed, bw)
				full, err := MergeCtx(context.Background(), g, children, parent, pins, cfg, 1, math.Inf(1))
				if err != nil {
					t.Fatal(err)
				}
				m, err := newMerger(context.Background(), g, children, parent, pins, cfg, 1)
				if err != nil {
					t.Fatal(err)
				}
				floors := childFloors(m)
				var mcls []float64
				for _, c := range full.Candidates {
					mcls = append(mcls, c.MCL)
				}
				for _, bar := range barsAround(append(mcls, floors...)) {
					want := &Block{}
					for _, c := range full.Candidates {
						if c.MCL <= bar {
							want.Candidates = append(want.Candidates, c)
						}
					}
					for _, par := range []int{1, 4} {
						got, err := MergeCtx(context.Background(), g, children, parent, pins, cfg, par, bar)
						if err != nil {
							t.Fatal(err)
						}
						at := fmt.Sprintf("%s par=%d bar=%v", label, par, bar)
						wantSameBlock(t, want, got, at)
						if len(got.Candidates) > 0 {
							continue
						}
						if floorStop := slices.Max(floors) > bar; floorStop != (got.BarSteps == 0) {
							t.Fatalf("%s: stopped after %d steps, floors %v", at, got.BarSteps, floors)
						}
						if got.BarSteps > nchild {
							t.Fatalf("%s: stopped after %d steps of %d", at, got.BarSteps, nchild)
						}
						stops[min(got.BarSteps, 1)]++
					}
				}
			}
		}
	}
	if stops[0] == 0 || stops[1] == 0 {
		t.Fatalf("%d floor-check stops and %d step stops, want both", stops[0], stops[1])
	}
}

// TestMergeBarFloorStopsOnLaterChild pins that the floor check covers
// every child, not only the one step 0 places: children 0 and 1 share the
// heaviest traffic, so the merge places one of them first, while child 6
// carries the heaviest internal traffic. At a bar that only child 6's
// floor exceeds, the merge stops before its first step.
func TestMergeBarFloorStopsOnLaterChild(t *testing.T) {
	const nchild, tpc = 8, 8
	b := graph.New(nchild * tpc)
	for c := 0; c < nchild; c++ {
		for i := 0; i < tpc; i++ {
			b.AddTraffic(c*tpc+i, c*tpc+(i+1)%tpc, 1)
		}
	}
	for i := 0; i < tpc; i++ {
		for j := 0; j < tpc; j++ {
			b.AddTraffic(i, tpc+j, 200)
			if i != j {
				b.AddTraffic(6*tpc+i, 6*tpc+j, 10)
			}
		}
	}
	g := b.Build()
	children := deltaChildren(t, g, nchild, tpc, []int{2, 2, 2})
	pins := []int{0, 1, 2, 3, 4, 5, 6, 7}
	parent := topology.NewMesh(4, 4, 4)
	cfg := Config{BeamWidth: 8}
	m, err := newMerger(context.Background(), g, children, parent, pins, cfg, 1)
	if err != nil {
		t.Fatal(err)
	}
	order := m.mergeOrder()
	floors := childFloors(m)
	bar := 0.0
	for c, f := range floors {
		if c != 6 {
			bar = max(bar, f)
		}
	}
	if order[0] == 6 || floors[6] <= bar {
		t.Fatalf("construction: merge order %v, floors %v", order, floors)
	}
	full, err := MergeCtx(context.Background(), g, children, parent, pins, cfg, 1, math.Inf(1))
	if err != nil {
		t.Fatal(err)
	}
	if full.Candidates[0].MCL <= bar {
		t.Fatalf("unbarred best %v is at or below the bar %v", full.Candidates[0].MCL, bar)
	}
	got, err := MergeCtx(context.Background(), g, children, parent, pins, cfg, 1, bar)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Candidates) != 0 || got.BarSteps != 0 {
		t.Fatalf("bar %v: %d candidates after %d steps, want the floor check's stop", bar, len(got.Candidates), got.BarSteps)
	}
	if len(got.Tasks) != nchild*tpc {
		t.Fatalf("barred block holds %d tasks, want %d", len(got.Tasks), nchild*tpc)
	}
}
