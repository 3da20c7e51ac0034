package rahtm

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"math/rand"
	"strconv"
	"testing"
)

// barCase is one solve of the default-order-bar digest.
type barCase struct {
	name string
	req  Request
}

// haloInlineGraph is the serve-mix request graph: a seeded communication
// graph for a side x side torus at concentration 4, a periodic 2-D halo
// over the (2 side)^2 process grid with volumes 1..9, plus one random
// long-range partner per process with volume 1..4.
func haloInlineGraph(rng *rand.Rand, side int) (string, []int) {
	g := side * 2
	procs := g * g
	b := fmt.Appendf(nil, "comm %d\n", procs)
	edge := func(s, d, vol int) {
		b = strconv.AppendInt(b, int64(s), 10)
		b = append(b, ' ')
		b = strconv.AppendInt(b, int64(d), 10)
		b = append(b, ' ')
		b = strconv.AppendInt(b, int64(vol), 10)
		b = append(b, '\n')
	}
	id := func(i, j int) int { return ((i+g)%g)*g + (j+g)%g }
	for i := 0; i < g; i++ {
		for j := 0; j < g; j++ {
			v := id(i, j)
			for _, n := range [...]int{id(i, j+1), id(i, j-1), id(i+1, j), id(i-1, j)} {
				edge(v, n, 1+rng.Intn(9))
			}
			if p := rng.Intn(procs); p != v {
				edge(v, p, 1+rng.Intn(4))
			}
		}
	}
	return string(b), []int{g, g}
}

// barCases lists the digest's solves: both solve-halo-4k instances, the
// 512 rung of the scale ladder, serve-mix-shaped inline graphs on 4x4 and
// 8x8, the NAS kernels and a random graph on 4x4x4, a 6x4 torus (the
// partitioned path) and a mesh.
func barCases() []barCase {
	cases := []barCase{
		{"halo2d-4k", Request{Workload: "halo2d", Grid: []int{64, 64}, Topo: []int{4, 4, 4, 4}, Conc: 16}},
		{"halo3d-4k", Request{Workload: "halo3d", Grid: []int{16, 16, 16}, Topo: []int{4, 4, 4, 4}, Conc: 16}},
		{"rung-512", Request{Work: Halo2D(16, 32, 1), Torus: NewTorus(4, 4, 4, 2), Conc: 4}},
		{"torus-6x4", Request{Workload: "halo2d", Grid: []int{12, 8}, Topo: []int{6, 4}, Conc: 4}},
		{"mesh-4x4", Request{Workload: "halo2d", Grid: []int{8, 8}, Topo: []int{4, 4}, Mesh: true, Conc: 4}},
	}
	for _, w := range []string{"BT", "SP", "CG", "random"} {
		cases = append(cases, barCase{w + "-4x4x4", Request{Workload: w, Topo: []int{4, 4, 4}, Conc: 4}})
	}
	for _, s := range []struct{ side, n int }{{4, 200}, {8, 50}} {
		for i := 0; i < s.n; i++ {
			g, grid := haloInlineGraph(rand.New(rand.NewSource(int64(s.side*1000+i))), s.side)
			cases = append(cases, barCase{fmt.Sprintf("inline-%dx%d-%d", s.side, s.side, i),
				Request{Graph: g, Grid: grid, Topo: []int{s.side, s.side}, Conc: 4}})
		}
	}
	return cases
}

// barDigest solves every case at the given parallelism and beam width and
// hashes, per case, the process mapping, the MCL bits and DefaultFallback.
// It also counts the solves that fell back to the identity order.
func barDigest(cases []barCase, par, beam int) (string, int, error) {
	h := sha256.New()
	var buf [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	fallbacks := 0
	for _, c := range cases {
		req := c.req
		req.Parallelism = par
		req.BeamWidth = beam
		res, err := Solve(context.Background(), req)
		if err != nil {
			return "", 0, fmt.Errorf("%s: %v", c.name, err)
		}
		put(uint64(len(res.Mapping)))
		for _, v := range res.Mapping {
			put(uint64(v))
		}
		put(math.Float64bits(res.MCL))
		fb := uint64(0)
		if res.Stats.DefaultFallback {
			fb = 1
			fallbacks++
		}
		put(fb)
	}
	return hex.EncodeToString(h.Sum(nil)), fallbacks, nil
}

// barDigests are barDigest's values per beam width, recorded before the
// root merge was barred at the identity order's MCL: the bar must not move
// a mapping bit, an MCL bit or a fallback flag, at any parallelism.
var barDigests = map[int]string{
	64: "f48836a89a7c2fd36fa650525a74ba22683ca5d9ba27271aae5eee2167d4a07c",
	8:  "953e2f03cde775155a198720fa6cee9884ec328e31801230a24e2ac7db8c036b",
}

// TestDefaultBarByteIdentical pins that barring the root merge at the
// identity order's MCL is exact: the solves give the mappings, MCL bits
// and DefaultFallback flags of the unbarred merge, at Parallelism 1 and 4
// and beam widths 64 and 8.
func TestDefaultBarByteIdentical(t *testing.T) {
	cases := barCases()
	for _, beam := range []int{64, 8} {
		for _, par := range []int{1, 4} {
			t.Run(fmt.Sprintf("beam=%d/par=%d", beam, par), func(t *testing.T) {
				got, fallbacks, err := barDigest(cases, par, beam)
				if err != nil {
					t.Fatal(err)
				}
				t.Logf("%d cases, %d fell back to the identity order", len(cases), fallbacks)
				if got != barDigests[beam] {
					t.Fatalf("digest %s, want %s", got, barDigests[beam])
				}
			})
		}
	}
}
