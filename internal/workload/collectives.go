package workload

import (
	"fmt"

	"rahtm/internal/collective"
	"rahtm/internal/graph"
)

// WithCollective returns a copy of the workload with the traffic of the
// named collective (over all ranks) added — the §VI extension: collectives
// become mappable point-to-point patterns once the implementation is known.
func (w *Workload) WithCollective(op collective.Op, msg float64) (*Workload, error) {
	g := graph.New(w.Procs())
	w.Graph.EachFlow(g.AddTraffic)
	if err := collective.Add(g, op, collective.World(g.N()), msg); err != nil {
		return nil, err
	}
	return &Workload{
		Name:         fmt.Sprintf("%s+%s", w.Name, op),
		Grid:         append([]int(nil), w.Grid...),
		Graph:        g.Build(),
		CommFraction: w.CommFraction,
	}, nil
}

// WithRowCollectives adds the collective over every row of the workload's
// 2-D grid (sub-communicator collectives, as in CG's row reductions).
func (w *Workload) WithRowCollectives(op collective.Op, msg float64) (*Workload, error) {
	if len(w.Grid) != 2 {
		return nil, fmt.Errorf("workload: row collectives need a 2-D grid, have %v", w.Grid)
	}
	g := graph.New(w.Procs())
	w.Graph.EachFlow(g.AddTraffic)
	rows, cols := w.Grid[0], w.Grid[1]
	for i := 0; i < rows; i++ {
		comm := make(collective.Communicator, cols)
		for j := 0; j < cols; j++ {
			comm[j] = i*cols + j
		}
		if err := collective.Add(g, op, comm, msg); err != nil {
			return nil, err
		}
	}
	return &Workload{
		Name:         fmt.Sprintf("%s+row-%s", w.Name, op),
		Grid:         append([]int(nil), w.Grid...),
		Graph:        g.Build(),
		CommFraction: w.CommFraction,
	}, nil
}

// AllReduceJob is a data-parallel training-style workload: computation
// interleaved with global all-reduces of msg bytes, implemented either as a
// ring or with recursive doubling.
func AllReduceJob(procs int, msg float64, op collective.Op) (*Workload, error) {
	g := graph.New(procs)
	if err := collective.Add(g, op, collective.World(procs), msg); err != nil {
		return nil, err
	}
	return &Workload{
		Name:         fmt.Sprintf("allreduce-%d-%s", procs, op),
		Graph:        g.Build(),
		CommFraction: 0.50,
	}, nil
}
