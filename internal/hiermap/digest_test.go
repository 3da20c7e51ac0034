package hiermap

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"sync"
	"testing"

	"rahtm/internal/routing"
	"rahtm/internal/telemetry"
	"rahtm/internal/topology"
)

// leafCases are the seeded leaf solves TestLeafSolveDigest pins: exhaustive
// search on the two cube sizes Auto gives it, and annealing on the 16- and
// 32-node cubes the 4k and 16k rungs anneal. The 2^4 anneals run past
// incEval's periodic rebuild, and the mesh one restarts.
var leafCases = []struct {
	shape    []int
	torus    bool
	method   Method
	iters    int
	restarts int
	seeds    int
}{
	{[]int{2, 2}, false, Exhaustive, 0, 0, 4},
	{[]int{2, 2, 2}, false, Exhaustive, 0, 0, 2},
	{[]int{2, 2, 2, 2}, false, Anneal, 9000, 2, 1},
	{[]int{2, 2, 2, 2}, true, Anneal, 9000, 1, 1},
	{[]int{2, 2, 2, 2, 2}, true, Anneal, 1000, 1, 1},
}

// leafDigest is leafSolveDigest over leafCases as the solvers computed it
// when every flow was routed by MinimalAdaptive.AddLoads; replaying
// compiled routes must not change a bit of it.
const leafDigest = "69684550fb4fcb4384d436df44489af85b290671046aef8c5e1c3695eb4d3166"

// leafSolveDigest hashes, per case: the mapping, the bits of a fresh
// MaxChannelLoad of it on the case's cube, Method/Proved/Degraded, and the
// anneal counter deltas read from the solve's own scope.
func leafSolveDigest() (string, error) {
	h := sha256.New()
	var buf [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	bit := func(b bool) uint64 {
		if b {
			return 1
		}
		return 0
	}
	for ci, c := range leafCases {
		n := 1 << len(c.shape)
		cube := topology.NewMesh(c.shape...)
		if c.torus {
			cube = topology.NewTorus(c.shape...)
		}
		for seed := int64(1); seed <= int64(c.seeds); seed++ {
			g := randomGraph(n, 100*int64(ci)+seed)
			scope := telemetry.NewScope("leaf-digest")
			ctx := telemetry.WithScope(context.Background(), scope)
			res, err := MapCtx(ctx, g, cube, Config{
				Method: c.method, AnnealIters: c.iters, AnnealRestarts: c.restarts, Seed: seed,
			})
			if err != nil {
				return "", fmt.Errorf("case %d seed %d: %v", ci, seed, err)
			}
			put(uint64(len(res.Mapping)))
			for _, v := range res.Mapping {
				put(uint64(v))
			}
			put(math.Float64bits(routing.MaxChannelLoad(cube, g, res.Mapping, routing.MinimalAdaptive{})))
			put(uint64(res.Method))
			put(bit(res.Proved))
			put(bit(res.Degraded))
			for _, name := range []string{telemetry.CtrAnnealMoves, telemetry.CtrAnnealAccepted, telemetry.CtrAnnealRestarts} {
				put(uint64(scope.Counter(name).Value()))
			}
		}
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

// TestLeafSolveDigest pins the leaf solvers' search bit for bit: any change
// to the loads a swap or permutation is scored on, the annealing schedule
// or the enumeration order changes the digest. The same cases solved from
// four goroutines at once must give the same digest.
func TestLeafSolveDigest(t *testing.T) {
	got, err := leafSolveDigest()
	if err != nil {
		t.Fatal(err)
	}
	if got != leafDigest {
		t.Fatalf("leaf solve digest %s, want %s", got, leafDigest)
	}
	var wg sync.WaitGroup
	digests := make([]string, 4)
	errs := make([]error, len(digests))
	for w := range digests {
		wg.Add(1)
		go func() {
			defer wg.Done()
			digests[w], errs[w] = leafSolveDigest()
		}()
	}
	wg.Wait()
	for w, d := range digests {
		if errs[w] != nil {
			t.Fatalf("worker %d: %v", w, errs[w])
		}
		if d != leafDigest {
			t.Fatalf("worker %d: leaf solve digest %s, want %s", w, d, leafDigest)
		}
	}
}
