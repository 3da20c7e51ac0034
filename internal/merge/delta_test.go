package merge

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"

	"rahtm/internal/graph"
	"rahtm/internal/routing"
	"rahtm/internal/telemetry"
	"rahtm/internal/topology"
)

// parentTopo is the parent block of children of childShape on a 2-ary cube
// of cubeShape: a torus when torus is set, a mesh otherwise.
func parentTopo(cubeShape, childShape []int, torus bool) *topology.Torus {
	dims := make([]int, len(cubeShape))
	for d := range dims {
		dims[d] = cubeShape[d] * childShape[d]
	}
	if torus {
		return topology.NewTorus(dims...)
	}
	return topology.NewMesh(dims...)
}

// deltaChildren builds nchild blocks of tpc tasks each by merging
// single-task leaves on the child cube, so every child carries a beam of
// candidates (not just one) and the byte-identity test exercises the
// ChildCandidates dimension. Construction is deterministic, so the
// reference and every production run see identical children.
func deltaChildren(t testing.TB, g *graph.Comm, nchild, tpc int, childShape []int) []*Block {
	t.Helper()
	ones := make([]int, len(childShape))
	for d := range ones {
		ones[d] = 1
	}
	children := make([]*Block, nchild)
	for i := 0; i < nchild; i++ {
		leaves := make([]*Block, tpc)
		pins := make([]int, tpc)
		for j := 0; j < tpc; j++ {
			leaves[j] = NewLeafBlock([]int{i*tpc + j}, ones, topology.Mapping{0}, 0)
			pins[j] = j
		}
		blk, err := MergeCtx(context.Background(), g, leaves, topology.NewMesh(childShape...), pins, Config{BeamWidth: 4, MaxOrientations: 8}, 1, math.Inf(1))
		if err != nil {
			t.Fatal(err)
		}
		children[i] = blk
	}
	return children
}

// wantSameBlock asserts got is byte-identical to want: same candidate
// count and order, bitwise-equal MCLs, identical local mappings, same
// Degraded flag. This is the delta-evaluation contract — == on float64 is
// deliberate.
func wantSameBlock(t *testing.T, want, got *Block, label string) {
	t.Helper()
	if got.Degraded != want.Degraded {
		t.Fatalf("%s: degraded %v, want %v", label, got.Degraded, want.Degraded)
	}
	if len(got.Candidates) != len(want.Candidates) {
		t.Fatalf("%s: %d candidates, want %d", label, len(got.Candidates), len(want.Candidates))
	}
	for i := range want.Candidates {
		//rahtm:allow(floateq): byte-identity is the contract under test, not a tolerance check
		if got.Candidates[i].MCL != want.Candidates[i].MCL {
			t.Fatalf("%s: candidate %d MCL %v, want %v (bitwise)",
				label, i, got.Candidates[i].MCL, want.Candidates[i].MCL)
		}
		if len(got.Candidates[i].Local) != len(want.Candidates[i].Local) {
			t.Fatalf("%s: candidate %d mapping length differs", label, i)
		}
		for j, p := range want.Candidates[i].Local {
			if got.Candidates[i].Local[j] != p {
				t.Fatalf("%s: candidate %d task %d at %d, want %d",
					label, i, j, got.Candidates[i].Local[j], p)
			}
		}
	}
}

// addFlows is addFlowsDelta into a dense vector, same flow order, with the
// child's tasks found through a map of its own rather than taskChild: the
// internal-load deposit of denseOrder and denseMerge.
func (m *merger) addFlows(tasks []int, pos []int, loads []float64) {
	at := make(map[int]int, len(tasks))
	for i, t := range tasks {
		at[t] = pos[i]
	}
	for _, t := range tasks {
		for ni, d := range m.nbr[t] {
			if pd, ok := at[int(d)]; ok {
				m.alg.AddLoads(m.parent, at[t], pd, m.nvol[t][ni], loads)
			}
		}
	}
}

// addCrossEdges is addCrossEdgesDelta into a dense vector, same flow order:
// the scoring deposit of denseMerge.
func (m *merger) addCrossEdges(edges []crossEdge, st *state, cp []int, loads []float64) {
	for _, e := range edges {
		pp := st.pos[e.s][e.oi]
		if e.toChild {
			m.alg.AddLoads(m.parent, pp, cp[e.ci], e.vol, loads)
		} else {
			m.alg.AddLoads(m.parent, cp[e.ci], pp, e.vol, loads)
		}
	}
}

// maxShifted returns the maximum of base[ch]+delta[ch] over all channels,
// the dense score of a combination.
func maxShifted(base, delta []float64) float64 {
	max := 0.0
	for ch, b := range base {
		if v := b + delta[ch]; v > max {
			max = v
		}
	}
	return max
}

// denseOrder is the reference for mergeOrder: every sampled orientation
// pair of every child pair is scored in full on a dense vector — the sum of
// the two children's internal loads, then the pair's cross flows in task
// order, as mergeOrder deposits them — with no cut-off.
func denseOrder(m *merger) []int {
	n := len(m.children)
	if n == 1 {
		return []int{0}
	}
	ko := len(m.orients)
	for ko > 1 && ko*ko > m.cfg.MaxPairEvals {
		ko--
	}
	nch := m.parent.NumChannels()
	pl := make([][][]int, n)
	internal := make([][][]float64, n)
	for i := range pl {
		pl[i] = make([][]int, ko)
		internal[i] = make([][]float64, ko)
		for oi := range pl[i] {
			p := m.placement(i, m.children[i].Candidates[0], m.orients[oi])
			pl[i][oi] = p
			internal[i][oi] = make([]float64, nch)
			m.addFlows(m.children[i].Tasks, p, internal[i][oi])
		}
	}
	buf := make([]float64, nch)
	avg := make([]float64, n)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			// The pair's cross flows t -> d, in task order.
			var flows [][2]int
			var vols []float64
			for t := 0; t < m.g.N(); t++ {
				ct := int(m.taskChild[t])
				if ct != i && ct != j {
					continue
				}
				for ni, d := range m.nbr[t] {
					if cd := int(m.taskChild[d]); cd != ct && (cd == i || cd == j) {
						flows = append(flows, [2]int{t, int(d)})
						vols = append(vols, m.nvol[t][ni])
					}
				}
			}
			best := -1.0
			for oi := 0; oi < ko; oi++ {
				for oj := 0; oj < ko; oj++ {
					pos := func(t int) int {
						if int(m.taskChild[t]) == i {
							return pl[i][oi][m.taskLocal[t]]
						}
						return pl[j][oj][m.taskLocal[t]]
					}
					for k := range buf {
						buf[k] = internal[i][oi][k] + internal[j][oj][k]
					}
					for k, f := range flows {
						m.alg.AddLoads(m.parent, pos(f[0]), pos(f[1]), vols[k], buf)
					}
					if mcl := routing.MCL(buf); best < 0 || mcl < best {
						best = mcl
					}
				}
			}
			avg[i] += best
			avg[j] += best
		}
	}
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return avg[order[a]] > avg[order[b]] })
	return order
}

// denseMerge is the reference the production merge is checked against:
// the same beam search with every combination scored densely — the child's
// internal flows deposited from a zeroed vector at the combination's own
// placement (once per candidate and orientation), the step's cross flows
// on top, then a full scan of state loads plus deposits — and each step's
// combinations fully sorted by MCL, state key and packed choice. No bound,
// no snapshots, no per-worker heaps, no cancellation.
func denseMerge(m *merger) *Block {
	order := denseOrder(m)
	buf := make([]float64, m.parent.NumChannels())
	beam := []*state{{loads: make([]float64, len(buf))}}
	childStep := make([]int32, len(m.children))
	for i := range childStep {
		childStep[i] = -1
	}
	for step, child := range order {
		tasks := m.children[child].Tasks
		nc := min(len(m.children[child].Candidates), m.cfg.ChildCandidates)
		edges := m.crossEdgesFor(order, step, childStep)
		childStep[child] = int32(step)
		internal := map[[2]int][]float64{}
		deposit := func(st *state, c, o int) []int {
			p := m.placement(child, m.children[child].Candidates[c], m.orients[o])
			in, ok := internal[[2]int{c, o}]
			if !ok {
				in = make([]float64, len(buf))
				m.addFlows(tasks, p, in)
				internal[[2]int{c, o}] = in
			}
			copy(buf, in)
			m.addCrossEdges(edges, st, p, buf)
			return p
		}
		var combos []combo
		for c := 0; c < nc; c++ {
			for o := range m.orients {
				for si, st := range beam {
					deposit(st, c, o)
					combos = append(combos, combo{si: int32(si), cand: int32(c), orient: int32(o), mcl: maxShifted(st.loads, buf)})
				}
			}
		}
		sort.Slice(combos, func(a, b int) bool {
			ca, cb := &combos[a], &combos[b]
			if ca.mcl < cb.mcl {
				return true
			}
			if cb.mcl < ca.mcl {
				return false
			}
			if ca.si != cb.si {
				return lessKey(beam[ca.si].key, beam[cb.si].key)
			}
			return packChoice(int(ca.cand), int(ca.orient)) < packChoice(int(cb.cand), int(cb.orient))
		})
		if len(combos) > m.cfg.BeamWidth {
			combos = combos[:m.cfg.BeamWidth]
		}
		next := make([]*state, 0, len(combos))
		for _, sc := range combos {
			st := beam[sc.si]
			p := deposit(st, int(sc.cand), int(sc.orient))
			loads := append([]float64(nil), st.loads...)
			for k := range loads {
				loads[k] += buf[k]
			}
			choice := packChoice(int(sc.cand), int(sc.orient))
			next = append(next, st.extend(p, choice, loads, sc.mcl))
		}
		beam = topN(next, m.cfg.BeamWidth)
	}
	return m.block(beam, order, false)
}

// haloTiles is a periodic 2-D halo exchange on a grid of square tiles, with
// tile i's cells numbered i*tpc.. so that deltaChildren makes each tile one
// child. Horizontal and vertical messages differ in volume.
func haloTiles(nchild, tpc int) *graph.Comm {
	tw, cw := isqrt(tpc), isqrt(nchild) // tile width, tiles per grid row
	side := tw * cw
	id := func(r, c int) int {
		r, c = (r+side)%side, (c+side)%side
		return ((r/tw)*cw+c/tw)*tpc + (r%tw)*tw + c%tw
	}
	g := graph.New(nchild * tpc)
	for r := 0; r < side; r++ {
		for c := 0; c < side; c++ {
			g.AddTraffic(id(r, c), id(r, c+1), 3)
			g.AddTraffic(id(r, c), id(r, c-1), 3)
			g.AddTraffic(id(r, c), id(r+1, c), 2)
			g.AddTraffic(id(r, c), id(r-1, c), 2)
		}
	}
	return g.Build()
}

// grayPins places tile (a, b) of a square grid of nchild tiles at cube
// position (gray(a), gray(b)) of a 2-ary cube, so halo-adjacent tiles —
// including across the periodic seam — are cube neighbors, as Phase 2
// pins them.
func grayPins(nchild int) []int {
	cw := isqrt(nchild)
	bits := 0
	for 1<<bits < cw {
		bits++
	}
	pins := make([]int, nchild)
	for a := 0; a < cw; a++ {
		for b := 0; b < cw; b++ {
			pins[a*cw+b] = (a^a>>1)<<bits | b ^ b>>1
		}
	}
	return pins
}

func isqrt(n int) int {
	r := 0
	for (r+1)*(r+1) <= n {
		r++
	}
	return r
}

// TestMergeDeltaByteIdentical pins the scoring contract the package
// comment promises: at every beam width and parallelism, the production
// merge — sparse delta scoring, replayed internal-load snapshots,
// per-worker bounded heaps and the bound and pair cut-offs —
// produces candidates byte-identical (bitwise MCL, same mappings, same
// order) to denseMerge. It doubles as the Parallelism 1-vs-8 beam
// determinism regression for the deterministic combo tie-breaks.
func TestMergeDeltaByteIdentical(t *testing.T) {
	scenarios := []struct {
		name       string
		childShape []int
		cubeShape  []int
		torus      bool
		beams      []int
		// cands, orients and pairEvals are the ChildCandidates,
		// MaxOrientations and MaxPairEvals settings (0 = default).
		cands, orients, pairEvals int
		// halo replaces the random graph with a periodic 2-D halo whose
		// tiles are the children, as Phase 1 clusters a halo exchange.
		halo bool
		// wantSkips requires the bound to reject combinations.
		wantSkips bool
	}{
		// Parent 4x4x4, 384 channels.
		{
			name:       "3d-4x4x4",
			childShape: []int{2, 2, 2},
			cubeShape:  []int{2, 2, 2},
			beams:      []int{1, 2, 8},
			cands:      2, orients: 8,
		},
		// The paper's 16,384-process shape scaled to one top-level merge:
		// parent 4x4x4x4x2 with a 1-extent child dimension.
		{
			name:       "5d-4x4x4x4x2",
			childShape: []int{2, 2, 2, 2, 1},
			cubeShape:  []int{2, 2, 2, 2, 2},
			beams:      []int{4},
			cands:      2, orients: 8,
		},
		// Wrapped evaluation (k=4 dims tie at distance 2) on a small
		// channel space.
		{
			name:       "torus-4x4x2",
			childShape: []int{2, 2, 2},
			cubeShape:  []int{2, 2, 1},
			torus:      true,
			beams:      []int{1, 8},
			cands:      2, orients: 8,
		},
		// Shaped like the 4k halo root merge: 2x2x2x2 children of 2x2x2x2
		// tasks on a 4x4x4x4 torus, all 384 orientations, beam 64. The
		// ordering samples 16 orientations per child instead of 64 only
		// to keep the dense reference affordable.
		{
			name:       "halo-root-4x4x4x4",
			childShape: []int{2, 2, 2, 2},
			cubeShape:  []int{2, 2, 2, 2},
			torus:      true,
			beams:      []int{64},
			cands:      1, pairEvals: 256,
			halo:      true,
			wantSkips: true,
		},
	}
	for _, sc := range scenarios {
		t.Run(sc.name, func(t *testing.T) {
			nchild := 1
			for _, k := range sc.cubeShape {
				nchild *= k
			}
			tpc := 1
			for _, k := range sc.childShape {
				tpc *= k
			}
			n := nchild * tpc
			rng := rand.New(rand.NewSource(int64(1000 + n)))
			var g *graph.Comm
			if sc.halo {
				g = haloTiles(nchild, tpc)
			} else {
				b := graph.New(n)
				for e := 0; e < 4*n; e++ {
					b.AddTraffic(rng.Intn(n), rng.Intn(n), float64(1+rng.Intn(9)))
				}
				g = b.Build()
			}
			pins := rng.Perm(nchild)
			if sc.halo {
				pins = grayPins(nchild)
			}

			parent := parentTopo(sc.cubeShape, sc.childShape, sc.torus)
			for _, bw := range sc.beams {
				cfg := Config{
					BeamWidth:       bw,
					ChildCandidates: sc.cands,
					MaxOrientations: sc.orients,
					MaxPairEvals:    sc.pairEvals,
				}
				label := fmt.Sprintf("bw=%d", bw)
				m, err := newMerger(context.Background(), g, deltaChildren(t, g, nchild, tpc, sc.childShape), parent, pins, cfg, 1)
				if err != nil {
					t.Fatal(err)
				}
				want := denseMerge(m)
				for _, par := range []int{1, 8} {
					reg := telemetry.NewRegistry()
					ctx := telemetry.WithScope(context.Background(), &telemetry.Scope{Reg: reg})
					got, err := MergeCtx(ctx, g, deltaChildren(t, g, nchild, tpc, sc.childShape), parent, pins, cfg, par, math.Inf(1))
					if err != nil {
						t.Fatal(err)
					}
					wantSameBlock(t, want, got, fmt.Sprintf("%s par=%d", label, par))
					if skips := reg.Snapshot().Counter(telemetry.CtrBeamBoundSkips); sc.wantSkips && skips <= 0 {
						t.Errorf("%s par=%d: bound rejected %d combinations, want > 0", label, par, skips)
					}
				}
			}
		})
	}
}

// TestTopNDeterministicTieBreak pins the beam truncation tie-break: states
// with equal MCL are ordered by their packed choice key, so which of them
// survives a narrow beam never depends on arrival order (and hence not on
// scoring-worker scheduling).
func TestTopNDeterministicTieBreak(t *testing.T) {
	mk := func(mcl float64, key ...uint64) *state {
		return &state{mcl: mcl, key: key}
	}
	a := mk(5, 1, 2)
	b := mk(5, 1, 3)
	c := mk(5, 0, 9)
	d := mk(4, 7, 7)
	for _, order := range [][]*state{{a, b, c, d}, {d, c, b, a}, {b, d, a, c}} {
		in := append([]*state(nil), order...)
		got := topN(in, 2)
		if len(got) != 2 || got[0] != d || got[1] != c {
			t.Fatalf("order %v: topN kept %v, want [d c]", order, got)
		}
	}
}
