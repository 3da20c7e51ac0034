package workload

import (
	"fmt"

	"rahtm/internal/graph"
)

// Transpose builds the FFT/matrix-transpose exchange on an n x n process
// grid: every rank exchanges with its transpose partner, the long-distance
// all-to-one-diagonal pattern that punishes locality-only mappers.
func Transpose(n int, vol float64) *Workload {
	g := graph.New(n * n)
	id := func(i, j int) int { return i*n + j }
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i != j {
				g.AddTraffic(id(i, j), id(j, i), vol)
			}
		}
	}
	return &Workload{
		Name:         fmt.Sprintf("transpose-%dx%d", n, n),
		Grid:         []int{n, n},
		Graph:        g.Build(),
		CommFraction: 0.55,
	}
}

// Sweep builds a wavefront (Sweep3D/KBA-style) pattern on an r x c grid:
// each rank forwards to its east and south neighbors only — directed,
// non-periodic, pipeline-structured traffic.
func Sweep(r, c int, vol float64) *Workload {
	g := graph.New(r * c)
	id := func(i, j int) int { return i*c + j }
	for i := 0; i < r; i++ {
		for j := 0; j < c; j++ {
			if j+1 < c {
				g.AddTraffic(id(i, j), id(i, j+1), vol)
			}
			if i+1 < r {
				g.AddTraffic(id(i, j), id(i+1, j), vol)
			}
		}
	}
	return &Workload{
		Name:         fmt.Sprintf("sweep-%dx%d", r, c),
		Grid:         []int{r, c},
		Graph:        g.Build(),
		CommFraction: 0.30,
	}
}

// Spectral builds an FFT-like pattern: a 2-D grid performing butterfly
// exchanges along both rows and columns (the communication core of a
// pencil-decomposed 3-D FFT).
func Spectral(rows, cols int, vol float64) (*Workload, error) {
	if rows&(rows-1) != 0 || cols&(cols-1) != 0 {
		return nil, fmt.Errorf("workload: spectral grid %dx%d must have power-of-two sides", rows, cols)
	}
	g := graph.New(rows * cols)
	id := func(i, j int) int { return i*cols + j }
	for i := 0; i < rows; i++ {
		for j := 0; j < cols; j++ {
			for d := 1; d < cols; d *= 2 {
				g.AddTraffic(id(i, j), id(i, j^d), vol)
			}
			for d := 1; d < rows; d *= 2 {
				g.AddTraffic(id(i, j), id(i^d, j), vol)
			}
		}
	}
	return &Workload{
		Name:         fmt.Sprintf("spectral-%dx%d", rows, cols),
		Grid:         []int{rows, cols},
		Graph:        g.Build(),
		CommFraction: 0.60,
	}, nil
}

// ManyToOne builds an I/O-aggregation pattern: every rank sends vol to a
// small set of aggregator ranks (rank 0 of each block of blockSize).
func ManyToOne(procs, blockSize int, vol float64) (*Workload, error) {
	if blockSize < 1 || procs%blockSize != 0 {
		return nil, fmt.Errorf("workload: block size %d does not divide %d", blockSize, procs)
	}
	g := graph.New(procs)
	for v := 0; v < procs; v++ {
		agg := (v / blockSize) * blockSize
		if v != agg {
			g.AddTraffic(v, agg, vol)
		}
	}
	return &Workload{
		Name:         fmt.Sprintf("manytoone-%d-b%d", procs, blockSize),
		Graph:        g.Build(),
		CommFraction: 0.45,
	}, nil
}
