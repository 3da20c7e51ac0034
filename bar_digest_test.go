package rahtm

import (
	"bufio"
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"flag"
	"fmt"
	"math"
	"math/rand"
	"os"
	"strconv"
	"strings"
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
// It also returns each case's MCL and counts the solves that fell back to
// the identity order.
func barDigest(cases []barCase, par, beam int) (string, []float64, int, error) {
	h := sha256.New()
	var buf [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	mcls := make([]float64, len(cases))
	fallbacks := 0
	for i, c := range cases {
		req := c.req
		req.Parallelism = par
		req.BeamWidth = beam
		res, err := Solve(context.Background(), req)
		if err != nil {
			return "", nil, 0, fmt.Errorf("%s: %v", c.name, err)
		}
		put(uint64(len(res.Mapping)))
		for _, v := range res.Mapping {
			put(uint64(v))
		}
		put(math.Float64bits(res.MCL))
		mcls[i] = res.MCL
		fb := uint64(0)
		if res.Stats.DefaultFallback {
			fb = 1
			fallbacks++
		}
		put(fb)
	}
	return hex.EncodeToString(h.Sum(nil)), mcls, fallbacks, nil
}

// barBeams are the beam widths the digest solves at.
var barBeams = []int{64, 8}

// barDigests are barDigest's values per beam width.
var barDigests = map[int]string{
	64: "93cc5edc149d84cf4b5647b0d028eb281c1f9ae84ad299912c1e0c78e75b8d5e",
	8:  "d6f0ad45916614f710a607ea9be58d2ff1ca8a613d98b39b70c1e1dbc957c3f5",
}

// barParentMCLs holds every case's MCL bits at beam widths 64 and 8 as
// the leaf solver computed them before its seeds and bound (commit
// bcac738); its header names the command that wrote it.
const barParentMCLs = "testdata/bar_mcls_bcac738.txt"

var barMCLsOut = flag.String("bar-mcls-out", "", "TestBarMCLsRecord writes every bar case's MCL bits to this file")

// TestBarMCLsRecord writes barParentMCLs' format: one line per beam width
// and case, "beam name bits mcl", at Parallelism 1. It runs only when
// -bar-mcls-out names the output file.
func TestBarMCLsRecord(t *testing.T) {
	if *barMCLsOut == "" {
		t.Skip("set -bar-mcls-out to record the bar cases' MCLs")
	}
	cases := barCases()
	var b strings.Builder
	for _, beam := range barBeams {
		_, mcls, _, err := barDigest(cases, 1, beam)
		if err != nil {
			t.Fatal(err)
		}
		for i, c := range cases {
			fmt.Fprintf(&b, "%d %s %016x %v\n", beam, c.name, math.Float64bits(mcls[i]), mcls[i])
		}
	}
	if err := os.WriteFile(*barMCLsOut, []byte(b.String()), 0o644); err != nil {
		t.Fatal(err)
	}
}

// readBarMCLs parses barParentMCLs into per-beam, per-case MCLs. Lines
// starting with '#' are comments.
func readBarMCLs(path string) (map[int]map[string]float64, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	out := map[int]map[string]float64{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) != 4 {
			return nil, fmt.Errorf("%s: bad line %q", path, line)
		}
		beam, err := strconv.Atoi(fields[0])
		if err != nil {
			return nil, fmt.Errorf("%s: %v", path, err)
		}
		bits, err := strconv.ParseUint(fields[2], 16, 64)
		if err != nil {
			return nil, fmt.Errorf("%s: %v", path, err)
		}
		if out[beam] == nil {
			out[beam] = map[string]float64{}
		}
		out[beam][fields[1]] = math.Float64frombits(bits)
	}
	return out, sc.Err()
}

// TestDefaultBarByteIdentical pins the solves' mappings, MCL bits and
// DefaultFallback flags at Parallelism 1 and 4 and beam widths 64 and 8,
// and checks that no case's MCL is above its value in barParentMCLs. The
// digests were first taken before the root merge was barred at the
// identity order's MCL, which moved no bit. They were re-pinned when the
// leaf solver started from the cube's Gray labelings and stopped at the
// per-node bound, which moved mappings on purpose: halo3d-4k (209.33 ->
// 80) and rung-512 (4.167 -> 2) improved at both widths, and halo2d-4k
// keeps its MCL of 40 from its root merge instead of the identity
// fallback; no case's MCL rose.
func TestDefaultBarByteIdentical(t *testing.T) {
	cases := barCases()
	parent, err := readBarMCLs(barParentMCLs)
	if err != nil {
		t.Fatal(err)
	}
	for _, beam := range barBeams {
		if len(parent[beam]) != len(cases) {
			t.Fatalf("%s has %d cases at beam %d, want %d", barParentMCLs, len(parent[beam]), beam, len(cases))
		}
		for _, par := range []int{1, 4} {
			t.Run(fmt.Sprintf("beam=%d/par=%d", beam, par), func(t *testing.T) {
				got, mcls, fallbacks, err := barDigest(cases, par, beam)
				if err != nil {
					t.Fatal(err)
				}
				t.Logf("%d cases, %d fell back to the identity order", len(cases), fallbacks)
				for i, c := range cases {
					was, ok := parent[beam][c.name]
					if !ok {
						t.Fatalf("%s: no parent MCL in %s", c.name, barParentMCLs)
					}
					if mcls[i] > was {
						t.Errorf("%s: MCL %v rose above the parent's %v", c.name, mcls[i], was)
					}
				}
				if got != barDigests[beam] {
					t.Fatalf("digest %s, want %s", got, barDigests[beam])
				}
			})
		}
	}
}
