// collectives demonstrates the paper's §VI extension: once the
// *implementation* of a collective is known, its point-to-point pattern can
// be mapped like any other traffic — and different implementations of the
// same collective want different mappings.
package main

import (
	"context"
	"fmt"
	"log"

	"rahtm"
)

func main() {
	ctx := context.Background()
	t := rahtm.NewTorus(4, 4)
	const procs = 16
	const msg = 1000.0

	impls := []rahtm.CollectiveOp{
		rahtm.AllReduceRing,
		rahtm.AllReduceRecursiveDoubling,
	}

	fmt.Printf("all-reduce of %g bytes/process on %s\n\n", msg, t)
	fmt.Printf("%-28s %12s %12s %12s\n", "implementation", "default MCL", "RAHTM MCL", "improvement")
	for _, op := range impls {
		w, err := rahtm.AllReduceJob(procs, msg, op)
		if err != nil {
			log.Fatal(err)
		}
		def, err := rahtm.Solve(ctx, rahtm.Request{Work: w, Torus: t, Mapper: "default"})
		if err != nil {
			log.Fatal(err)
		}
		opt, err := rahtm.Solve(ctx, rahtm.Request{Work: w, Torus: t})
		if err != nil {
			log.Fatal(err)
		}
		mclDef, mclOpt := def.MCL, opt.MCL
		fmt.Printf("%-28s %12.4g %12.4g %11.1f%%\n", op, mclDef, mclOpt, 100*(1-mclOpt/mclDef))
	}

	// A composite job: CG plus a global all-reduce per iteration — the
	// profile-driven path an MPI tool would feed RAHTM.
	fmt.Println("\ncomposite: CG + allreduce-recursive-doubling")
	w, err := rahtm.CG(procs)
	if err != nil {
		log.Fatal(err)
	}
	w2, err := w.WithCollective(rahtm.AllReduceRecursiveDoubling, 200)
	if err != nil {
		log.Fatal(err)
	}
	opt, err := rahtm.Solve(ctx, rahtm.Request{Work: w2, Torus: t})
	if err != nil {
		log.Fatal(err)
	}
	def, err := rahtm.Solve(ctx, rahtm.Request{Work: w2, Torus: t, Mapper: "default"})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("default MCL %.4g -> RAHTM MCL %.4g\n", def.MCL, opt.MCL)

	// Validate the win with the packet-level simulator rather than the
	// analytic model.
	cfg := rahtm.PacketSimConfig{Seed: 1, InjectionRate: 64}
	rd, err := rahtm.PacketSimulateCtx(ctx, t, w2.Graph, def.Mapping, cfg)
	if err != nil {
		log.Fatal(err)
	}
	ro, err := rahtm.PacketSimulateCtx(ctx, t, w2.Graph, opt.Mapping, cfg)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("packet-level: default %d cycles, RAHTM %d cycles (%.1f%% faster)\n",
		rd.Cycles, ro.Cycles, 100*(1-float64(ro.Cycles)/float64(rd.Cycles)))
}
