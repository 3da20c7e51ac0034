package merge

import (
	"context"
	"fmt"
	"math"
	"testing"

	"rahtm/internal/graph"
	"rahtm/internal/telemetry"
	"rahtm/internal/topology"
)

// haloRoot is the halo-root-4x4x4x4 scenario of TestMergeDeltaByteIdentical
// without the dense reference: 16 children of 2x2x2x2 tasks from a
// periodic 2-D halo, Gray-pinned on a 2x2x2x2 cube, merged on a 4x4x4x4
// torus with all 384 orientations and beam 64.
type haloRoot struct {
	g        *graph.Comm
	children []*Block
	parent   *topology.Torus
	pins     []int
	cfg      Config
}

func newHaloRoot(t testing.TB) *haloRoot {
	const nchild, tpc = 16, 16
	g := haloTiles(nchild, tpc)
	children := deltaChildren(t, g, nchild, tpc, []int{2, 2, 2, 2})
	return &haloRoot{
		g:        g,
		children: children,
		parent:   topology.NewTorus(4, 4, 4, 4),
		pins:     grayPins(nchild),
		cfg:      Config{BeamWidth: 64, ChildCandidates: 1, MaxPairEvals: 256},
	}
}

// merge runs the root merge at the given parallelism under ctx.
func (h *haloRoot) merge(ctx context.Context, par int) (*Block, error) {
	return MergeCtx(ctx, h.g, h.children, h.parent, h.pins, h.cfg, par, math.Inf(1))
}

// TestMergeWorkCounts pins the merge's work on the halo-root scenario: the
// stencil walks (every compiled replay counts its hits as a walk would),
// the beam's candidates, kept combos and bound skips, the bound skips the
// channel-subset prescreen made, and the ordering's orientation-pair
// evaluations. Route replay, table resets, the ordering's floor skip, the
// rank table and the slot-local screen replay change none of them; the
// candidate, kept and ordering counts were taken from the merge that
// walked every flow. The prescreen leaves them unchanged too, but a combo
// it rejects is never routed in full, and its screen replays count no
// stencil hit, so the hits fell from 1,553,218 (Parallelism 1) and
// 3,706,604 (Parallelism 8) to 737,227 and 1,760,028.
//
// The key-aware tie bound moved three counts. A combo whose key comes
// after the worst kept combo's is now bounded strictly below that combo's
// MCL, so a tie it would lose is skipped instead of scored in full and
// offered: bound skips rose from 349,581 to 364,631 (Parallelism 1) and
// from 309,340 to 334,157 (8). Most combos the prescreen used to reject
// were scored against a state whose MCL equals the worst kept one; those
// whose key comes after it are now skipped on their state's MCL before
// any replay, so the prescreen's share and the stencil hits fell: screen
// skips 348,331 -> 62,427 and 299,859 -> 255,113, hits 737,227 -> 479,250
// and 1,760,028 -> 1,280,701. The heaps keep the same combos, so
// candidates, kept combos and symmetry evaluations do not move.
func TestMergeWorkCounts(t *testing.T) {
	h := newHaloRoot(t)
	want := map[int]map[string]int64{
		1: {
			telemetry.CtrStencilHits:     479250,
			telemetry.CtrStencilMisses:   0,
			telemetry.CtrBeamCandidates:  369024,
			telemetry.CtrBeamKept:        1024,
			telemetry.CtrBeamBoundSkips:  364631,
			telemetry.CtrBeamScreenSkips: 62427,
			telemetry.CtrSymmetryEvals:   30720,
		},
		8: {
			telemetry.CtrStencilHits:     1280701,
			telemetry.CtrStencilMisses:   0,
			telemetry.CtrBeamCandidates:  369024,
			telemetry.CtrBeamKept:        1024,
			telemetry.CtrBeamBoundSkips:  334157,
			telemetry.CtrBeamScreenSkips: 255113,
			telemetry.CtrSymmetryEvals:   30720,
		},
	}
	for _, par := range []int{1, 8} {
		t.Run(fmt.Sprintf("par=%d", par), func(t *testing.T) {
			reg := telemetry.NewRegistry()
			ctx := telemetry.WithScope(context.Background(), &telemetry.Scope{Reg: reg})
			if _, err := h.merge(ctx, par); err != nil {
				t.Fatal(err)
			}
			snap := reg.Snapshot()
			for _, name := range []string{
				telemetry.CtrStencilHits, telemetry.CtrStencilMisses,
				telemetry.CtrBeamCandidates, telemetry.CtrBeamKept,
				telemetry.CtrBeamBoundSkips, telemetry.CtrBeamScreenSkips, telemetry.CtrSymmetryEvals,
			} {
				if got := snap.Counter(name); got != want[par][name] {
					t.Errorf("%s = %d, want %d", name, got, want[par][name])
				}
			}
		})
	}
}

// BenchmarkMergeHaloRoot times the halo-root merge at Parallelism 1.
func BenchmarkMergeHaloRoot(b *testing.B) {
	h := newHaloRoot(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := h.merge(context.Background(), 1); err != nil {
			b.Fatal(err)
		}
	}
}
