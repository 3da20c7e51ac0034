package routing

import (
	"math"
	"math/rand"
	"testing"
	"unsafe"

	"rahtm/internal/topology"
)

// TestScreenStencilExact pins the prescreen's exactness: for random screen
// sets S and random flow sequences, a DeltaVec fed AddScreenDelta holds,
// after every flow, the values a DeltaVec fed AddLoadsDelta holds on S,
// bit for bit, nothing off S, and a peak equal to the full vector's peak
// over S (so at most the full peak). Both replay through one table, as
// the merge scorers do, in a random order per flow. S changes between
// sequences, never within one. The topologies cover 4-D and 5-D 2-ary
// tori, a mesh, a mixed 6x4 torus, and the 2x2x2x2x4x4x4x4 torus, whose
// antipodal pairs are walked (AddScreenDelta must refuse them and deposit
// nothing; the sequence ends there, as a screened combo does) and whose
// far pairs outgrow the budget, so tables reset mid-sequence.
func TestScreenStencilExact(t *testing.T) {
	cases := []struct {
		name       string
		tp         *topology.Torus
		seqs, flow int
		resets     bool // the case must reset a table mid-sequence
		walks      bool // the case must meet a walked pair
	}{
		{name: "4x4x4x4", tp: topology.NewTorus(4, 4, 4, 4), seqs: 40, flow: 60},
		{name: "4x4x4x4x2", tp: topology.NewTorus(4, 4, 4, 4, 2), seqs: 40, flow: 60},
		{name: "mesh-4x4x4", tp: topology.NewMesh(4, 4, 4), seqs: 40, flow: 60},
		{name: "mixed-6x4", tp: topology.NewMixed([]int{6, 4}, []bool{true, false}), seqs: 40, flow: 60},
		{name: "torus-6x4", tp: topology.NewTorus(6, 4), seqs: 40, flow: 60},
		{name: "2x2x2x2x4x4x4x4", tp: topology.NewTorus(2, 2, 2, 2, 4, 4, 4, 4), seqs: 8, flow: 12, resets: true, walks: true},
	}
	for ci, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(101 + ci)))
			tp, n, nch := tc.tp, tc.tp.N(), tc.tp.NumChannels()
			tb := MinimalAdaptive{}.Table(tp)
			full, scr := NewDeltaVec(nch), NewDeltaVec(nch)
			mag := func() float64 { return rng.Float64() * math.Ldexp(1, rng.Intn(40)-20) }
			// A small pool of pairs makes most flows replays.
			pool := make([][2]int, 24)
			for i := range pool {
				pool[i] = [2]int{rng.Intn(n), rng.Intn(n)}
			}
			// far pairs a node with the one half way round every
			// dimension, one hop short of that in dimension near when
			// near >= 0.
			far := func(near int) [2]int {
				src := rng.Intn(n)
				c := tp.CoordOf(src, nil)
				for d := range c {
					hops := tp.Dim(d) / 2
					if d == near {
						hops--
					}
					c[d] = (c[d] + hops) % tp.Dim(d)
				}
				return [2]int{src, tp.RankOf(c)}
			}
			resets, walks, screened := 0, 0, 0
			for seq := 0; seq < tc.seqs; seq++ {
				// Grow S between sequences: a few channels at a time,
				// past the cap in the long cases.
				for k := rng.Intn(12); k >= 0; k-- {
					tb.Screen(rng.Intn(nch))
				}
				if tb.nscreen > maxScreenChans {
					t.Fatalf("screen holds %d channels, cap %d", tb.nscreen, maxScreenChans)
				}
				base := make([]float64, nch)
				for ch := range base {
					if rng.Intn(3) == 0 {
						base[ch] = mag()
					}
				}
				baseMCL := MCL(base)
				full.ResetOver(base, baseMCL)
				scr.ResetOver(base, baseMCL)
				for f := 0; f < tc.flow; f++ {
					var pr [2]int
					switch r := rng.Intn(16); {
					case tc.walks && r == 0:
						pr = far(-1)
					case tc.resets && r < 4:
						pr = far(tp.NumDims() - 1 - rng.Intn(4))
					case r < 10:
						pr = pool[rng.Intn(len(pool))]
					default:
						pr = [2]int{rng.Intn(n), rng.Intn(n)}
					}
					src, dst, vol := pr[0], pr[1], mag()
					before, used := scr.NumTouched(), tb.used
					var ok bool
					if rng.Intn(2) == 0 {
						ok = tb.AddScreenDelta(src, dst, vol, scr)
						tb.AddLoadsDelta(src, dst, vol, full)
					} else {
						tb.AddLoadsDelta(src, dst, vol, full)
						ok = tb.AddScreenDelta(src, dst, vol, scr)
					}
					if tb.used < used {
						resets++
					}
					if !ok {
						// Refused: the pair is walked, or its list does not
						// fit the budget left.
						if r := tb.route(src, dst); r != nil && listCost+screenEntryCost*tb.onScreen(r) <= tb.free {
							t.Fatalf("seq %d flow %d: %d->%d refused, yet compiled and its list fits", seq, f, src, dst)
						}
						if scr.NumTouched() != before {
							t.Fatalf("seq %d flow %d: a refused flow deposited", seq, f)
						}
						walks++
						break // the screen ends; the combo is scored in full
					}
					screened++
					peakS := baseMCL
					for ch := 0; ch < nch; ch++ {
						got, want := scr.Value(ch), 0.0
						if tb.screened(ch) {
							want = full.Value(ch)
							if full.stamp[ch] == full.gen {
								peakS = math.Max(peakS, base[ch]+want)
							}
						}
						if math.Float64bits(got) != math.Float64bits(want) {
							t.Fatalf("seq %d flow %d: channel %d (in S: %v) screened %v, full %v",
								seq, f, ch, tb.screened(ch), got, want)
						}
					}
					if math.Float64bits(scr.Peak()) != math.Float64bits(peakS) || scr.Peak() > full.Peak() {
						t.Fatalf("seq %d flow %d: screened peak %v, full peak over S %v, full peak %v",
							seq, f, scr.Peak(), peakS, full.Peak())
					}
				}
			}
			if screened == 0 || (tc.resets && resets == 0) || (tc.walks && walks == 0) {
				t.Fatalf("coverage: %d screened flows, %d budget resets, %d walked pairs", screened, resets, walks)
			}
			t.Logf("%d screened flows, %d budget resets, %d walked pairs, |S| = %d", screened, resets, walks, tb.nscreen)
		})
	}
}

// onScreen counts r's channel ids on S: the length of its screen list.
func (tb *Table) onScreen(r *route) int {
	n := 0
	for _, ch := range tb.ids[r.off : int(r.off)+int(r.nc)*len(r.st.fracs)] {
		if tb.screened(int(ch)) {
			n++
		}
	}
	return n
}

// TestScreenStencilStorage pins the screen's memory bound: after repeated
// changes to S over the same pairs, the table holds the current S's lists
// and nothing more, every list, id and pair record is charged to the one
// budget, and S stops growing at its cap.
func TestScreenStencilStorage(t *testing.T) {
	// The charges are the records' sizes in 2-byte ids (a pair record
	// holds two index slots).
	if pairCost != unsafe.Sizeof(route{}) || 2*listCost != unsafe.Sizeof(screenList{}) ||
		2*screenEntryCost != unsafe.Sizeof(uint16(0))+unsafe.Sizeof(uint32(0)) {
		t.Fatalf("charges %d/%d/%d ids for %d-byte records, %d-byte lists and 6-byte entries",
			pairCost, listCost, screenEntryCost, unsafe.Sizeof(route{}), unsafe.Sizeof(screenList{}))
	}
	tp := topology.NewTorus(4, 4, 4, 4)
	n, nch := tp.N(), tp.NumChannels()
	rng := rand.New(rand.NewSource(7))
	tb := MinimalAdaptive{}.Table(tp)
	dv := NewDeltaVec(nch)
	pairs := make([][2]int, 200)
	for i := range pairs {
		pairs[i] = [2]int{rng.Intn(n), rng.Intn(n)}
	}
	// want is the current S's lists: one per distinct pair, holding the
	// pair's ids on S.
	want := func() (lists, entries int) {
		seen := map[[2]int]bool{}
		for _, pr := range pairs {
			if pr[0] != pr[1] && !seen[pr] {
				seen[pr] = true
				lists++
				entries += tb.onScreen(tb.route(pr[0], pr[1]))
			}
		}
		return lists, entries
	}
	for round := 0; round < 300; round++ {
		ch := rng.Intn(nch)
		for tb.screened(ch) {
			ch = rng.Intn(nch)
		}
		if grew := tb.Screen(ch); grew != (round < maxScreenChans) {
			t.Fatalf("round %d: Screen(%d) = %v with %d channels in S", round, ch, grew, tb.nscreen)
		}
		dv.ResetOver(make([]float64, nch), 0)
		for _, pr := range pairs {
			if !tb.AddScreenDelta(pr[0], pr[1], 1, dv) {
				t.Fatalf("round %d: pair %v refused", round, pr)
			}
		}
		if wl, we := want(); len(tb.lists) != wl || len(tb.sIDs) != we || len(tb.sFrac) != we {
			t.Fatalf("round %d: %d screen lists of %d entries (%d fractions), current S's lists are %d of %d",
				round, len(tb.lists), len(tb.sIDs), len(tb.sFrac), wl, we)
		}
		if c := cap(tb.sIDs); c > 2*len(tb.sIDs)+64 {
			t.Fatalf("round %d: screen slab capacity %d for %d entries", round, c, len(tb.sIDs))
		}
		if spent := maxTableChans - tb.free; spent != len(tb.ids)+pairCost*tb.used+listCost*len(tb.lists)+screenEntryCost*len(tb.sIDs) {
			t.Fatalf("round %d: budget spent %d, want %d ids + %d pairs + %d screen lists + %d screen entries",
				round, spent, len(tb.ids), tb.used, len(tb.lists), len(tb.sIDs))
		}
	}
	tb.Reset()
	if tb.nscreen != 0 || len(tb.lists) != 0 || len(tb.sIDs) != 0 || tb.free != maxTableChans {
		t.Fatalf("after Reset: |S| %d, %d screen entries, budget %d", tb.nscreen, len(tb.sIDs), tb.free)
	}
}
