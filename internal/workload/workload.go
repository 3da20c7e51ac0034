// Package workload generates synthetic communication graphs reproducing the
// point-to-point patterns of the paper's benchmarks (NAS BT, SP, CG) and
// several generic HPC patterns (halo exchanges, butterflies, random
// neighbors).
//
// The paper profiles real MPI runs on Blue Gene/Q with IPM; this repository
// substitutes graphs built from the published communication structure of
// those benchmarks:
//
//   - BT and SP use the NAS multi-partition scheme on a sqrt(P) x sqrt(P)
//     process grid: each rank exchanges faces with its four periodic grid
//     neighbors during the x/y/z sweeps (BT also touches its diagonal
//     successors, a by-product of the multi-partition cell rotation).
//   - CG lays ranks on a num_proc_rows x num_proc_cols grid: every rank
//     exchanges with its row-mates at power-of-two distances during the
//     reduce phase (a butterfly) and with its transpose partner — the
//     long-distance pattern that makes CG so mapping-sensitive in Figures 8
//     and 10.
//
// CommFraction carries the communication share of total execution time the
// paper measured (Figure 9: CG > 70%, BT/SP ~ 35%); internal/netsim uses it
// to calibrate the computation term of the execution-time model.
package workload

import (
	"fmt"
	"math/rand"

	"rahtm/internal/graph"
)

// Workload is a benchmark communication pattern plus the metadata the
// mapping pipeline and the simulator need.
type Workload struct {
	Name string
	// Grid is the logical process grid (row-major), used by the tiling
	// clusterer and the blocked baseline mappers.
	Grid []int
	// Graph is the process-level communication graph; volumes are relative
	// bytes per iteration.
	Graph *graph.Comm
	// CommFraction is the fraction of execution time spent communicating
	// under the default mapping (Figure 9 calibration).
	CommFraction float64
}

// Procs returns the process count.
func (w *Workload) Procs() int { return w.Graph.N() }

// perfectSquare returns the integer square root when procs is a perfect
// square.
func perfectSquare(procs int) (int, error) {
	s := 1
	for s*s < procs {
		s++
	}
	if s*s != procs {
		return 0, fmt.Errorf("workload: %d is not a perfect square", procs)
	}
	return s, nil
}

// BT builds the Block Tri-diagonal solver pattern on procs ranks (a perfect
// square). Face exchanges with the four periodic neighbors dominate; the
// multi-partition diagonal shift adds lighter diagonal traffic.
func BT(procs int) (*Workload, error) {
	s, err := perfectSquare(procs)
	if err != nil {
		return nil, fmt.Errorf("BT: %w", err)
	}
	g := graph.New(procs)
	id := func(i, j int) int { return i*s + j }
	const face = 40.0 // relative face-exchange volume per iteration
	const diag = 10.0 // multi-partition diagonal successor volume
	for i := 0; i < s; i++ {
		for j := 0; j < s; j++ {
			g.AddTraffic(id(i, j), id(i, (j+1)%s), face)
			g.AddTraffic(id(i, j), id(i, (j-1+s)%s), face)
			g.AddTraffic(id(i, j), id((i+1)%s, j), face)
			g.AddTraffic(id(i, j), id((i-1+s)%s, j), face)
			g.AddTraffic(id(i, j), id((i+1)%s, (j+1)%s), diag)
		}
	}
	return &Workload{Name: "BT", Grid: []int{s, s}, Graph: g.Build(), CommFraction: 0.35}, nil
}

// SP builds the Scalar Penta-diagonal solver pattern: the same
// multi-partition grid as BT but with heavier, more frequent boundary
// exchanges and no diagonal component.
func SP(procs int) (*Workload, error) {
	s, err := perfectSquare(procs)
	if err != nil {
		return nil, fmt.Errorf("SP: %w", err)
	}
	g := graph.New(procs)
	id := func(i, j int) int { return i*s + j }
	const face = 60.0
	for i := 0; i < s; i++ {
		for j := 0; j < s; j++ {
			g.AddTraffic(id(i, j), id(i, (j+1)%s), face)
			g.AddTraffic(id(i, j), id(i, (j-1+s)%s), face)
			g.AddTraffic(id(i, j), id((i+1)%s, j), face)
			g.AddTraffic(id(i, j), id((i-1+s)%s, j), face)
		}
	}
	return &Workload{Name: "SP", Grid: []int{s, s}, Graph: g.Build(), CommFraction: 0.35}, nil
}

// CG builds the Conjugate Gradient pattern on procs ranks (a power of four
// works best: square grid of power-of-two sides). Row butterflies at
// power-of-two distances plus transpose-partner exchanges.
func CG(procs int) (*Workload, error) {
	s, err := perfectSquare(procs)
	if err != nil {
		return nil, fmt.Errorf("CG: %w", err)
	}
	if s&(s-1) != 0 {
		return nil, fmt.Errorf("CG: grid side %d must be a power of two", s)
	}
	g := graph.New(procs)
	id := func(i, j int) int { return i*s + j }
	const reduce = 50.0    // per-stage butterfly exchange volume
	const transpose = 80.0 // transpose-partner exchange volume
	for i := 0; i < s; i++ {
		for j := 0; j < s; j++ {
			for d := 1; d < s; d *= 2 {
				g.AddTraffic(id(i, j), id(i, j^d), reduce)
			}
			if i != j {
				g.AddTraffic(id(i, j), id(j, i), transpose)
			}
		}
	}
	return &Workload{Name: "CG", Grid: []int{s, s}, Graph: g.Build(), CommFraction: 0.70}, nil
}

// ByName builds one of the paper's three benchmarks by name.
func ByName(name string, procs int) (*Workload, error) {
	switch name {
	case "BT", "bt":
		return BT(procs)
	case "SP", "sp":
		return SP(procs)
	case "CG", "cg":
		return CG(procs)
	}
	return nil, fmt.Errorf("workload: unknown benchmark %q (want BT, SP or CG)", name)
}

// Suite returns the paper's three benchmarks at the given scale.
func Suite(procs int) ([]*Workload, error) {
	var out []*Workload
	for _, name := range []string{"BT", "SP", "CG"} {
		w, err := ByName(name, procs)
		if err != nil {
			return nil, err
		}
		out = append(out, w)
	}
	return out, nil
}

// Halo2D builds a periodic 2-D nearest-neighbor exchange.
func Halo2D(rows, cols int, vol float64) *Workload {
	g := graph.New(rows * cols)
	id := func(i, j int) int { return i*cols + j }
	for i := 0; i < rows; i++ {
		for j := 0; j < cols; j++ {
			g.AddTraffic(id(i, j), id(i, (j+1)%cols), vol)
			g.AddTraffic(id(i, j), id(i, (j-1+cols)%cols), vol)
			g.AddTraffic(id(i, j), id((i+1)%rows, j), vol)
			g.AddTraffic(id(i, j), id((i-1+rows)%rows, j), vol)
		}
	}
	return &Workload{
		Name:         fmt.Sprintf("halo2d-%dx%d", rows, cols),
		Grid:         []int{rows, cols},
		Graph:        g.Build(),
		CommFraction: 0.30,
	}
}

// Halo3D builds a periodic 3-D nearest-neighbor exchange.
func Halo3D(nx, ny, nz int, vol float64) *Workload {
	g := graph.New(nx * ny * nz)
	id := func(x, y, z int) int { return (x*ny+y)*nz + z }
	for x := 0; x < nx; x++ {
		for y := 0; y < ny; y++ {
			for z := 0; z < nz; z++ {
				g.AddTraffic(id(x, y, z), id((x+1)%nx, y, z), vol)
				g.AddTraffic(id(x, y, z), id((x-1+nx)%nx, y, z), vol)
				g.AddTraffic(id(x, y, z), id(x, (y+1)%ny, z), vol)
				g.AddTraffic(id(x, y, z), id(x, (y-1+ny)%ny, z), vol)
				g.AddTraffic(id(x, y, z), id(x, y, (z+1)%nz), vol)
				g.AddTraffic(id(x, y, z), id(x, y, (z-1+nz)%nz), vol)
			}
		}
	}
	return &Workload{
		Name:         fmt.Sprintf("halo3d-%dx%dx%d", nx, ny, nz),
		Grid:         []int{nx, ny, nz},
		Graph:        g.Build(),
		CommFraction: 0.30,
	}
}

// RandomNeighbors builds a graph where every rank talks to deg random
// peers — the unstructured comparison case (no grid, greedy clustering).
func RandomNeighbors(procs, deg int, vol float64, seed int64) *Workload {
	rng := rand.New(rand.NewSource(seed))
	g := graph.New(procs)
	for v := 0; v < procs; v++ {
		for k := 0; k < deg; k++ {
			d := rng.Intn(procs)
			if d == v {
				continue
			}
			g.AddTraffic(v, d, vol*(0.5+rng.Float64()))
		}
	}
	return &Workload{
		Name:         fmt.Sprintf("random-%d-deg%d", procs, deg),
		Graph:        g.Build(),
		CommFraction: 0.40,
	}
}

// Ring builds a unidirectional ring exchange (pipeline pattern).
func Ring(procs int, vol float64) *Workload {
	g := graph.New(procs)
	for v := 0; v < procs; v++ {
		g.AddTraffic(v, (v+1)%procs, vol)
	}
	return &Workload{
		Name:         fmt.Sprintf("ring-%d", procs),
		Graph:        g.Build(),
		CommFraction: 0.25,
	}
}
