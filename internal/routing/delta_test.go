package routing

import (
	"math"
	"math/rand"
	"testing"

	"rahtm/internal/telemetry"
	"rahtm/internal/topology"
)

// Max returns the maximum accumulated delta (0 when nothing was touched,
// matching MCL of an otherwise-zero load vector). Test oracle for Peak over
// a zero base.
func (v *DeltaVec) Max() float64 {
	max := 0.0
	for _, ch := range v.touched {
		if x := v.vals[ch]; x > max {
			max = x
		}
	}
	return max
}

// MaxOver returns max(baseMCL, max over touched ch of base[ch]+delta[ch])
// by a full scan of the touched channels. Test oracle for Peak.
func (v *DeltaVec) MaxOver(base []float64, baseMCL float64) float64 {
	max := baseMCL
	for _, ch := range v.touched {
		if x := base[ch] + v.vals[ch]; x > max {
			max = x
		}
	}
	return max
}

// TestDeltaVecBasics exercises the sparse accumulator invariants.
func TestDeltaVecBasics(t *testing.T) {
	dv := NewDeltaVec(8)
	if dv.Size() != 8 || dv.NumTouched() != 0 || dv.Max() != 0 {
		t.Fatalf("fresh DeltaVec: size=%d touched=%d max=%v", dv.Size(), dv.NumTouched(), dv.Max())
	}
	dv.Add(3, 1.5)
	dv.Add(5, 2.0)
	dv.Add(3, 0.5)
	if got := dv.Value(3); got != 2.0 {
		t.Fatalf("Value(3) = %v, want 2", got)
	}
	if got := dv.Value(0); got != 0 {
		t.Fatalf("Value(0) = %v, want 0", got)
	}
	if dv.NumTouched() != 2 {
		t.Fatalf("NumTouched = %d, want 2", dv.NumTouched())
	}
	if dv.Max() != 2.0 {
		t.Fatalf("Max = %v, want 2", dv.Max())
	}
	base := []float64{0, 0, 0, 1, 0, 0.25, 0, 0}
	if got := dv.MaxOver(base, 1); got != 3.0 {
		t.Fatalf("MaxOver = %v, want 3", got)
	}
	dense := make([]float64, 8)
	dv.AddTo(dense)
	if dense[3] != 2.0 || dense[5] != 2.0 {
		t.Fatalf("AddTo: %v", dense)
	}

	dv.Reset()
	if dv.NumTouched() != 0 || dv.Value(3) != 0 {
		t.Fatalf("after Reset: touched=%d val3=%v", dv.NumTouched(), dv.Value(3))
	}
	dv.Add(3, 7)
	if dv.Value(3) != 7 || dv.NumTouched() != 1 {
		t.Fatalf("after Reset+Add: val3=%v touched=%d", dv.Value(3), dv.NumTouched())
	}
}

// TestDeltaVecPeak pins the running peak the merger's bound relies on:
// after every non-negative deposit — direct or replayed from a snapshot —
// Peak equals the full MaxOver scan bit-for-bit, and
// Reset stops tracking. Deposit magnitudes span many binades so the sums
// round.
func TestDeltaVecPeak(t *testing.T) {
	const n = 96
	rng := rand.New(rand.NewSource(13))
	mag := func() float64 {
		if rng.Intn(8) == 0 {
			return 0
		}
		return rng.Float64() * math.Ldexp(1, rng.Intn(48)-24)
	}
	dv := NewDeltaVec(n)
	src := NewDeltaVec(n)
	var snap Snapshot
	for trial := 0; trial < 300; trial++ {
		base := make([]float64, n)
		for ch := range base {
			if rng.Intn(3) > 0 {
				base[ch] = mag()
			}
		}
		baseMCL := MCL(base)
		if trial%5 == 0 {
			baseMCL += mag() // a state MCL above every base channel
		}
		src.Reset()
		for k := rng.Intn(12); k >= 0; k-- {
			src.Add(rng.Intn(n), mag())
		}
		snap = src.Snapshot(snap)

		dv.ResetOver(base, baseMCL)
		check := func(op string, k int) {
			t.Helper()
			got, want := dv.Peak(), dv.MaxOver(base, baseMCL)
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("trial %d op %d (%s): Peak %v, MaxOver %v", trial, k, op, got, want)
			}
		}
		check("ResetOver", -1)
		for k := 0; k < 60; k++ {
			if rng.Intn(5) == 0 {
				dv.AddSnapshot(snap)
				check("AddSnapshot", k)
				continue
			}
			dv.Add(rng.Intn(n), mag())
			check("Add", k)
		}
	}

	// Reset stops tracking: the peak reads 0 and ignores later deposits,
	// even onto channels that carried load in the old base.
	dv.Reset()
	dv.Add(0, 5)
	dv.AddSnapshot(snap)
	if got := dv.Peak(); got != 0 {
		t.Fatalf("Peak after Reset = %v, want 0", got)
	}
	// A zero base tracks the plain delta maximum.
	dv.ResetOver(make([]float64, n), 0)
	dv.Add(7, 0.5)
	dv.Add(9, 1.25)
	dv.Add(7, 1)
	if got, want := dv.Peak(), dv.Max(); got != want || got != 1.5 {
		t.Fatalf("zero-base Peak %v, Max %v, want 1.5", got, want)
	}
}

// TestDeltaVecSnapshotTranslate checks that a snapshot carries one
// accumulator's totals over to another: replayed onto earlier deposits
// they add channel by channel, and the snapshot stays frozen.
func TestDeltaVecSnapshotTranslate(t *testing.T) {
	dv := NewDeltaVec(32)
	dv.Add(2, 0.75)
	dv.Add(9, 1.25)
	dv.Add(2, 0.25)
	snap := dv.Snapshot(Snapshot{})
	if len(snap.Ch) != 2 || len(snap.Val) != 2 {
		t.Fatalf("snapshot shape: %+v", snap)
	}

	// Replay into an accumulator that already holds a deposit.
	dv2 := NewDeltaVec(32)
	dv2.Add(9, 0.5)
	dv2.AddSnapshot(snap)
	if dv2.Value(2) != 1.0 || dv2.Value(9) != 1.75 || dv2.NumTouched() != 2 {
		t.Fatalf("AddSnapshot: ch2=%v ch9=%v touched=%d", dv2.Value(2), dv2.Value(9), dv2.NumTouched())
	}

	// Snapshot is frozen: resetting the source must not affect it.
	dv.Reset()
	if snap.Val[0] != 1.0 && snap.Val[1] != 1.0 {
		t.Fatalf("snapshot mutated by Reset: %+v", snap)
	}
}

// TestAddLoadsDeltaBitwise asserts the core contract: for any flow, the
// per-channel totals a Table deposits through AddLoadsDelta are
// bit-identical (==, not approximately equal) to the totals AddLoads
// deposits into a zeroed dense vector, with equal stencil hit and miss
// counts, and the running peak over a base load vector equals the dense
// scan. Every pair is routed twice, so its second flow replays the
// compiled route. Covers wrap ties (torus distance exactly k/2), mesh
// dimensions, and displacements the cache key cannot encode: the 299-hop
// pair of a 300-node mesh and a 9-dimension torus. The table arm holds the
// compiled dense routes to the same contract against AddLoads, over flows
// of either sign.
func TestAddLoadsDeltaBitwise(t *testing.T) {
	for _, sh := range []struct {
		name  string
		topo  *topology.Torus
		pairs [][2]int
	}{
		{"torus-4x4", topology.NewTorus(4, 4), nil},
		{"mesh-5x3", topology.NewMesh(5, 3), nil},
		{"torus-4x4x4", topology.NewTorus(4, 4, 4), nil},
		{"torus-4x4x4x4x2", topology.NewTorus(4, 4, 4, 4, 2), nil},
		{"mesh-300", topology.NewMesh(300), [][2]int{{0, 299}, {299, 0}}},
		{"torus-2^9", topology.NewTorus(2, 2, 2, 2, 2, 2, 2, 2, 2), nil},
	} {
		t.Run("cached/"+sh.name, func(t *testing.T) {
			topo := sh.topo
			rng := rand.New(rand.NewSource(7))
			n := topo.N()
			refScope, tabScope := telemetry.NewScope("ref"), telemetry.NewScope("table")
			ref := MinimalAdaptive{}.WithScope(refScope)
			tab := MinimalAdaptive{}.WithScope(tabScope).Table(topo)
			dense := make([]float64, topo.NumChannels())
			base := make([]float64, topo.NumChannels())
			dv := NewDeltaVec(topo.NumChannels())
			var src, dst int
			for trial := 0; trial < 100; trial++ {
				// Odd trials replay the pair of the trial before.
				if trial%2 == 0 {
					src, dst = rng.Intn(n), rng.Intn(n)
					if trial/2 < len(sh.pairs) {
						src, dst = sh.pairs[trial/2][0], sh.pairs[trial/2][1]
					}
				}
				vol := 1 + rng.Float64()*9
				for i := range dense {
					dense[i] = 0
					base[i] = rng.Float64() * 20
				}
				baseMCL := MCL(base)
				ref.AddLoads(topo, src, dst, vol, dense)
				dv.ResetOver(base, baseMCL)
				tab.AddLoadsDelta(src, dst, vol, dv)

				nz := 0
				for ch, want := range dense {
					if want != 0 {
						nz++
					}
					if got := dv.Value(ch); got != want {
						t.Fatalf("trial %d flow %d->%d vol %v: ch %d delta %v dense %v (diff %g)",
							trial, src, dst, vol, ch, got, want, math.Abs(got-want))
					}
				}
				if dv.NumTouched() < nz {
					t.Fatalf("trial %d: delta touched %d channels, dense has %d non-zero",
						trial, dv.NumTouched(), nz)
				}
				// And the running peak equals the dense scan bitwise.
				want := 0.0
				for ch, b := range base {
					want = math.Max(want, b+dense[ch])
				}
				if got := dv.Peak(); math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("trial %d: peak %v, dense scan %v", trial, got, want)
				}
			}
			tab.Flush()
			for _, name := range []string{telemetry.CtrStencilHits, telemetry.CtrStencilMisses} {
				if g, w := tabScope.Counter(name).Value(), refScope.Counter(name).Value(); g != w {
					t.Fatalf("%s: table %d, AddLoads %d", name, g, w)
				}
			}
			misses := refScope.Counter(telemetry.CtrStencilMisses).Value()
			if wantMisses := len(sh.pairs) > 0 || topo.NumDims() > maxStencilDims; wantMisses != (misses > 0) {
				t.Fatalf("%d stencil misses, want them only for the unencodable displacements", misses)
			}
		})
	}

	// The table arm accumulates both sides over every flow, so replays of
	// an already compiled pair are checked too. On the 300-node mesh the
	// 299-hop pair has no cached stencil and must be walked. The 2^7
	// torus wants about 28M channel ids for all its pairs, so its flows
	// run the table out of budget and empty it again and again; the 2^9
	// torus indexes its pairs but, at 9 dimensions, misses the stencil
	// cache and walks them all. The 200x200 torus has more channels than
	// a uint16 id holds, so it indexes nothing. On the 2^4x4^4 torus
	// (2^16 channels) the antipodal pairs tie in every dimension and
	// would store 1.5M ids, more than an empty table holds, so they are
	// walked. The reset case empties the table halfway through.
	huge := topology.NewTorus(2, 2, 2, 2, 4, 4, 4, 4)
	far := huge.RankOf([]int{1, 1, 1, 1, 2, 2, 2, 2})
	for _, sh := range []struct {
		name   string
		topo   *topology.Torus
		pairs  [][2]int
		trials int
		spent  bool // the budget runs out and empties the table
		reset  bool // Reset after half the trials
		walked bool // pairs are cached but too large to compile
	}{
		{"torus-2x2x2x2", topology.NewTorus(2, 2, 2, 2), nil, 400, false, false, false},
		{"torus-4x4x4", topology.NewTorus(4, 4, 4), nil, 400, false, false, false},
		{"mesh-2x2x2x2", topology.NewMesh(2, 2, 2, 2), nil, 400, false, false, false},
		{"mesh-300", topology.NewMesh(300), [][2]int{{0, 299}, {299, 0}}, 400, false, false, false},
		{"torus-2^7", topology.NewTorus(2, 2, 2, 2, 2, 2, 2), nil, 4000, true, false, false},
		{"torus-2^9", topology.NewTorus(2, 2, 2, 2, 2, 2, 2, 2, 2), nil, 100, false, false, false},
		{"torus-200x200", topology.NewTorus(200, 200), nil, 100, false, false, false},
		{"torus-2^4x4^4", huge, [][2]int{{0, far}, {far, 0}}, 100, false, false, true},
		{"reset-torus-4x4x4", topology.NewTorus(4, 4, 4), nil, 400, false, true, false},
	} {
		t.Run("table/"+sh.name, func(t *testing.T) {
			topo := sh.topo
			rng := rand.New(rand.NewSource(11))
			n := topo.N()
			refScope, tabScope := telemetry.NewScope("ref"), telemetry.NewScope("table")
			ref := MinimalAdaptive{}.WithScope(refScope)
			tab := MinimalAdaptive{}.WithScope(tabScope).Table(topo)
			want := make([]float64, topo.NumChannels())
			got := make([]float64, topo.NumChannels())
			routed := map[[2]int]bool{}
			for trial := 0; trial < sh.trials; trial++ {
				if sh.reset && trial == sh.trials/2 {
					c := cap(tab.ids)
					tab.Reset()
					if len(tab.ids) != 0 || cap(tab.ids) != c || tab.used != 0 || tab.free != maxTableChans {
						t.Fatalf("after Reset: %d ids (cap %d, was %d), %d pairs, %d free",
							len(tab.ids), cap(tab.ids), c, tab.used, tab.free)
					}
				}
				src, dst := rng.Intn(n), rng.Intn(n)
				if trial%50 < len(sh.pairs) {
					src, dst = sh.pairs[trial%50][0], sh.pairs[trial%50][1]
				}
				vol := 1 + rng.Float64()*9
				if rng.Intn(2) == 0 {
					vol = -vol
				}
				if src != dst && trial >= sh.trials/2 {
					routed[[2]int{src, dst}] = true
				}
				ref.AddLoads(topo, src, dst, vol, want)
				tab.AddLoads(src, dst, vol, got)
				for ch := range want {
					if math.Float64bits(got[ch]) != math.Float64bits(want[ch]) {
						t.Fatalf("trial %d flow %d->%d vol %v: ch %d table %v AddLoads %v",
							trial, src, dst, vol, ch, got[ch], want[ch])
					}
				}
			}
			tab.Flush()
			for _, name := range []string{telemetry.CtrStencilHits, telemetry.CtrStencilMisses} {
				if g, w := tabScope.Counter(name).Value(), refScope.Counter(name).Value(); g != w {
					t.Fatalf("%s: table %d, AddLoads %d", name, g, w)
				}
			}
			misses := refScope.Counter(telemetry.CtrStencilMisses).Value()
			if wantMisses := len(sh.pairs) > 0 && !sh.walked || topo.NumDims() > maxStencilDims; wantMisses != (misses > 0) {
				t.Fatalf("%d stencil misses, want them only for the uncacheable pairs", misses)
			}

			// Memory: ids are stored only for topologies whose channel ids
			// fit uint16, the stored ids plus the charged pair records
			// account for the whole budget, and only uncached pairs are
			// walked.
			compiled, refused := 0, 0
			for _, r := range tab.slots {
				switch {
				case r.key == 0:
				case r.st != nil:
					compiled++
				default:
					refused++
				}
			}
			if compiled+refused != tab.used {
				t.Fatalf("%d compiled and %d refused records, index counts %d", compiled, refused, tab.used)
			}
			if len(tab.ids) > maxTableChans || len(tab.ids)+tab.used*pairCost+tab.free != maxTableChans {
				t.Fatalf("%d channel ids and %d pairs stored, %d free, budget %d",
					len(tab.ids), tab.used, tab.free, maxTableChans)
			}
			if topo.NumChannels() > maxTableTopoChans && (cap(tab.ids) != 0 || tab.slots != nil) {
				t.Fatalf("%d channels: %d ids, %d index slots, want none", topo.NumChannels(), cap(tab.ids), len(tab.slots))
			}
			if topo.NumDims() > maxStencilDims && (tab.used == 0 || compiled != 0) {
				t.Fatalf("%d dimensions: %d pairs indexed, %d compiled, want every pair indexed and walked",
					topo.NumDims(), tab.used, compiled)
			}
			if wantRefused := len(sh.pairs) > 0 || topo.NumDims() > maxStencilDims; tab.compiles && wantRefused != (refused > 0) {
				t.Fatalf("%d pairs walked, want them only for the given or uncacheable pairs", refused)
			}
			// Every pair of the second half is held unless the budget
			// emptied the table on the way.
			if tab.compiles && sh.spent != (compiled+refused < len(routed)) {
				t.Fatalf("%d pairs held of the %d routed since the middle, %d ids stored, want them all held: %v",
					compiled+refused, len(routed), len(tab.ids), !sh.spent)
			}
		})
	}
}

// TestAddLoadsDeltaTieEnumeration pins the wrap-tie case explicitly: on a
// 4-ring, distance 2 admits both directions and the flow splits.
func TestAddLoadsDeltaTieEnumeration(t *testing.T) {
	topo := topology.NewTorus(4)
	alg := MinimalAdaptive{}
	dense := make([]float64, topo.NumChannels())
	alg.AddLoads(topo, 0, 2, 8, dense)
	dv := NewDeltaVec(topo.NumChannels())
	alg.Table(topo).AddLoadsDelta(0, 2, 8, dv)
	for ch, want := range dense {
		if got := dv.Value(ch); got != want {
			t.Fatalf("ch %d: delta %v dense %v", ch, got, want)
		}
	}
	// Both directions carry half the volume across two hops each.
	if dv.NumTouched() != 4 {
		t.Fatalf("tie flow should touch 4 channels, touched %d", dv.NumTouched())
	}
}
