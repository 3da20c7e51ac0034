// Quickstart: map a 2-D halo-exchange job onto a small torus with RAHTM and
// compare the result against the machine's default mapping.
package main

import (
	"context"
	"fmt"
	"log"

	"rahtm"
)

func main() {
	// A 16-node 4x4 torus — the scale of the paper's §III walk-through.
	t := rahtm.NewTorus(4, 4)

	// 64 MPI processes doing a periodic 8x8 halo exchange, 4 per node.
	w := rahtm.Halo2D(8, 8, 10)
	const conc = 4

	// The machine default: ABT dimension order, cores fastest.
	def, err := rahtm.Solve(context.Background(), rahtm.Request{Work: w, Torus: t, Conc: conc, Mapper: "default"})
	if err != nil {
		log.Fatal(err)
	}

	// RAHTM: clustering + hierarchical optimal mapping + rotation merge.
	opt, err := rahtm.Solve(context.Background(), rahtm.Request{Work: w, Torus: t, Conc: conc})
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("workload: %s on %s, %d processes per node\n\n", w.Name, t, conc)
	for _, res := range []*rahtm.Result{def, opt} {
		rep := rahtm.Measure(t, w.Graph, res.Mapping)
		comm, err := rahtm.CommTime(t, w.Graph, res.Mapping, rahtm.Model{})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-8s %s\n         comm %.3gs/iter\n", res.Mapper, rep, comm.Time)
	}

	fmt.Printf("\nRAHTM cuts the maximum channel load by %.1f%%\n", 100*(1-opt.MCL/def.MCL))
}
