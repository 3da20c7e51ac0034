package core

import (
	"context"
	"testing"
	"time"

	"rahtm/internal/cluster"
	"rahtm/internal/graph"
	"rahtm/internal/topology"
)

// TestProcTaskMatchesConcentration checks that ProcTask, which a result
// derives from ProcToNode and the inverse of NodeMapping, returns for
// every process the node-level task the concentration step assigned it:
// cluster.Auto's own assignment, or the rank itself at concentration 1.
// The cases cover both clusterers, the partitioned path, the identity
// fallback and a degraded solve.
func TestProcTaskMatchesConcentration(t *testing.T) {
	expired, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	cases := []struct {
		name     string
		ctx      context.Context
		g        *graph.Comm
		tp       *topology.Torus
		conc     int
		grid     []int
		fallback bool // the case must end in the identity fallback
		degraded bool // the case must come back degraded
	}{
		{name: "conc1", g: halo2D(8, 4, 2), tp: topology.NewTorus(4, 4, 2), conc: 1, grid: []int{8, 4}},
		{name: "grid-tiles", g: halo2D(8, 8, 3), tp: topology.NewTorus(4, 4), conc: 4, grid: []int{8, 8}},
		{name: "greedy", g: butterflyRows(4, 16, 5), tp: topology.NewTorus(4, 4), conc: 4},
		{name: "partitioned-6x4", g: halo2D(12, 8, 1), tp: topology.NewTorus(6, 4), conc: 4, grid: []int{12, 8}},
		{name: "fallback", g: halo2D(16, 16, 1), tp: topology.NewTorus(8, 8), conc: 4, grid: []int{16, 16}, fallback: true},
		{name: "degraded", ctx: expired, g: halo3D(8, 8, 4, 1), tp: topology.NewTorus(4, 4, 4), conc: 4, grid: []int{8, 8, 4}, degraded: true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ctx := tc.ctx
			if ctx == nil {
				ctx = context.Background()
			}
			res, err := MapPartitionedCtx(ctx, tc.g, tc.tp, Config{Concentration: tc.conc, GridDims: tc.grid})
			if err != nil {
				t.Fatal(err)
			}
			if res.Stats.DefaultFallback != tc.fallback || res.Stats.Degraded != tc.degraded {
				t.Fatalf("DefaultFallback %v, Degraded %v; want %v, %v",
					res.Stats.DefaultFallback, res.Stats.Degraded, tc.fallback, tc.degraded)
			}
			want := identity(tc.g.N())
			if tc.conc > 1 {
				c, err := cluster.Auto(tc.g, tc.grid, tc.conc)
				if err != nil {
					t.Fatal(err)
				}
				want = c.Assign
			}
			for p, task := range want {
				if got := res.ProcTask(p); got != task {
					t.Fatalf("ProcTask(%d) = %d, want %d", p, got, task)
				}
				if res.NodeMapping[task] != res.ProcToNode[p] {
					t.Fatalf("process %d on node %d, its task %d on node %d", p, res.ProcToNode[p], task, res.NodeMapping[task])
				}
			}
		})
	}
}
