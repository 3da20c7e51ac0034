// nasbgq reproduces the paper's Mira Blue Gene/Q evaluation at laptop scale:
// the NAS BT, SP and CG benchmarks mapped by the full comparison set
// (dimension permutations, Hilbert, RHT, RAHTM) onto a torus, reporting the
// Figure 9, Figure 10 and Figure 8 tables.
//
// Run with -full for the paper's 512-node 4x4x4x4x2 configuration with
// 16,384 processes (minutes of mapping time, like the paper's offline runs).
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"time"

	"rahtm"
)

func main() {
	full := flag.Bool("full", false, "run the paper-scale 4x4x4x4x2 / 16K-process configuration")
	flag.Parse()

	// Laptop-scale default: 64-node 3-D torus, 256 processes, 4 per node.
	topo := rahtm.NewTorus(4, 4, 4)
	procs, conc := 256, 4
	mapper := rahtm.Mapper{}
	if *full {
		// The Mira partition of §IV: 4x4x4x4x2 torus, concentration 32.
		topo = rahtm.NewTorus(4, 4, 4, 4, 2)
		procs, conc = 16384, 32
		// Trim the beam search so the offline mapping stays in minutes.
		mapper.Merge.BeamWidth = 16
		mapper.Merge.ChildCandidates = 2
		mapper.Merge.MaxOrientations = 96
		mapper.Merge.MaxPairEvals = 256
		mapper.Leaf.AnnealIters = 10000
	}

	ws, err := rahtm.Suite(procs)
	if err != nil {
		log.Fatal(err)
	}
	ms := rahtm.StandardMappers(topo)
	ms[len(ms)-1] = mapper

	fmt.Printf("NAS benchmarks on %s, %d processes, concentration %d\n\n", topo, procs, conc)

	if err := rahtm.CommFractionTable(os.Stdout, ws, topo, conc, ms[0], rahtm.Model{}); err != nil {
		log.Fatal(err)
	}
	fmt.Println()

	start := time.Now()
	cs, err := rahtm.CompareSuiteCtx(context.Background(), ws, topo, conc, ms, rahtm.Model{})
	if err != nil {
		log.Fatal(err)
	}
	if err := rahtm.WriteTable(os.Stdout, cs, "comm"); err != nil {
		log.Fatal(err)
	}
	fmt.Println()
	if err := rahtm.WriteTable(os.Stdout, cs, "exec"); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\ntotal mapping + simulation time: %v\n", time.Since(start).Round(time.Millisecond))

	// The paper's headline: geometric-mean communication and execution
	// improvements of RAHTM over the default mapping.
	gm := cs[len(cs)-1]
	last := gm.Rows[len(gm.Rows)-1]
	fmt.Printf("RAHTM geomean: communication %+.1f%%, execution %+.1f%% (paper: -20%% / -9%%)\n",
		100*(last.RelComm-1), 100*(last.RelExec-1))
}
