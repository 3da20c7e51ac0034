package merge

import (
	"context"
	"fmt"
	"math"
	"testing"

	"rahtm/internal/graph"
	"rahtm/internal/topology"
)

// placement is the reference for merger.place, kept for the tests: the
// parent ranks of child's tasks under cand and o, each found by orienting
// the task's child-local coordinates (Orientation.Apply), offsetting them
// by the child's origin and encoding them (Torus.RankOf).
func (m *merger) placement(child int, cand Candidate, o Orientation) []int {
	origin := m.parent.CoordOf(m.originRank[child], nil)
	nd := len(m.childShape)
	out := make([]int, len(cand.Local))
	coord := make([]int, nd)
	for i, l := range cand.Local {
		p := o.Apply(m.childShape, l)
		for d := nd - 1; d >= 0; d-- {
			coord[d] = origin[d] + p%m.childShape[d]
			p /= m.childShape[d]
		}
		out[i] = m.parent.RankOf(coord)
	}
	return out
}

// TestRankTable pins the rank table against the coordinates it replaces,
// for the root merges of the scale ladder's rungs (512: 2x2x2x1 children,
// 4k: 2x2x2x2, 16k: 2x2x2x2x1, 64k: 2x2x2x2x2x1) on torus and mesh
// parents: for every child at its pinned cube position, every orientation
// and every child-local position, origin rank plus table offset must be
// the parent rank of the oriented coordinates offset by the child's
// origin, and place must put each task of a candidate on the rank of its
// local position.
func TestRankTable(t *testing.T) {
	for _, childShape := range [][]int{{2, 2, 2, 1}, {2, 2, 2, 2}, {2, 2, 2, 2, 1}, {2, 2, 2, 2, 2, 1}} {
		cubeShape := make([]int, len(childShape))
		nchild, tpc := 1, 1
		for d := range childShape {
			cubeShape[d] = 2
			nchild *= 2
			tpc *= childShape[d]
		}
		for _, torus := range []bool{true, false} {
			t.Run(fmt.Sprintf("%v-torus=%v", childShape, torus), func(t *testing.T) {
				parent := parentTopo(cubeShape, childShape, torus)
				// Every child holds the identity local mapping, and the
				// pins reverse the cube so no child sits at its own index.
				children := make([]*Block, nchild)
				pins := make([]int, nchild)
				for i := range children {
					tasks := make([]int, tpc)
					local := make(topology.Mapping, tpc)
					for j := range tasks {
						tasks[j] = i*tpc + j
						local[j] = j
					}
					children[i] = NewLeafBlock(tasks, childShape, local, 0)
					pins[i] = nchild - 1 - i
				}
				cfg := Config{MaxOrientations: math.MaxInt32}
				m, err := newMerger(context.Background(), graph.New(nchild*tpc).Build(), children, parent, pins, cfg, 1)
				if err != nil {
					t.Fatal(err)
				}
				if want := len(Orientations(childShape)); len(m.orients) != want {
					t.Fatalf("%d orientations, want all %d", len(m.orients), want)
				}
				// The oriented child-local coordinates of every position,
				// the same for every child.
				nd := len(childShape)
				oriented := make([][]int, len(m.orients)*tpc)
				for oi, o := range m.orients {
					for l := 0; l < tpc; l++ {
						x := make([]int, nd)
						p := o.Apply(childShape, l)
						for d := nd - 1; d >= 0; d-- {
							x[d] = p % childShape[d]
							p /= childShape[d]
						}
						oriented[oi*tpc+l] = x
					}
				}
				// place reads the table through a candidate's local
				// mapping: a reversed one here.
				rev := Candidate{Local: make(topology.Mapping, tpc)}
				for j := range rev.Local {
					rev.Local[j] = tpc - 1 - j
				}
				coord := make([]int, nd)
				want := make([]int, tpc)
				pos := make([]int, tpc)
				for i := range children {
					origin := cubeOrigin(cubeShape, childShape, pins[i])
					if got, want := m.originRank[i], parent.RankOf(origin); got != want {
						t.Fatalf("child %d at %d: origin rank %d, want %d", i, pins[i], got, want)
					}
					for oi := range m.orients {
						for l := 0; l < tpc; l++ {
							for d, x := range oriented[oi*tpc+l] {
								coord[d] = origin[d] + x
							}
							want[l] = parent.RankOf(coord)
							if got := m.originRank[i] + int(m.rankOff[oi*m.childSize+l]); got != want[l] {
								t.Fatalf("child %d orientation %d position %d: rank %d, want %d", i, oi, l, got, want[l])
							}
						}
						m.place(pos, i, rev, oi)
						for j, l := range rev.Local {
							if pos[j] != want[l] {
								t.Fatalf("child %d orientation %d task %d: placed at %d, want %d", i, oi, j, pos[j], want[l])
							}
						}
					}
				}
			})
		}
	}
}
