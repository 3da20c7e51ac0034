// Command rahtm-sim evaluates a mapping: channel-load metrics under the
// minimal-adaptive routing approximation and simulated per-iteration
// communication time.
//
//	rahtm-sim -workload CG -procs 256 -topo 4x4x4 -conc 4 -map cg.map
//	rahtm-sim -workload BT -procs 256 -topo 4x4x4 -conc 4 -mapper hilbert
//
// With -map the mapping comes from a map file produced by rahtm-map; with
// -mapper it is computed on the fly.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"

	"rahtm"
	"rahtm/internal/topology"
)

func main() {
	var (
		topoSpec = flag.String("topo", "4x4x4", "torus dimensions")
		wl       = flag.String("workload", "CG", "benchmark: BT, SP, CG, halo2d, halo3d, random")
		procs    = flag.Int("procs", 0, "number of processes (defaults to nodes x conc)")
		conc     = flag.Int("conc", 1, "processes per node")
		gridSpec = flag.String("grid", "", "logical process grid for halo workloads")
		mapFile  = flag.String("map", "", "map file (one node per line)")
		mapper   = flag.String("mapper", "", "compute the mapping with this mapper instead")
		linkBW   = flag.Float64("linkbw", 2e9, "link bandwidth, bytes/s")
		report   = flag.Bool("report", false, "print the telemetry counter report (stencil cache, solver effort) to stderr")
	)
	flag.Parse()

	req, err := newRequest(*wl, *gridSpec, *topoSpec, *procs, *conc)
	if err != nil {
		fatal(err)
	}
	w, topo, err := req.Materialize()
	if err != nil {
		fatal(err)
	}

	var mapping rahtm.Mapping
	switch {
	case *mapFile != "":
		mapping, err = readMapFileTopo(*mapFile, topo)
	case *mapper != "":
		req.Mapper = *mapper
		var res *rahtm.Result
		if res, err = rahtm.Solve(context.Background(), req); err == nil {
			mapping = res.Mapping
		}
	default:
		err = fmt.Errorf("need -map or -mapper")
	}
	if err != nil {
		fatal(err)
	}
	if len(mapping) != w.Procs() {
		fatal(fmt.Errorf("mapping covers %d processes, workload has %d", len(mapping), w.Procs()))
	}
	if err := mapping.Validate(topo.N(), false); err != nil {
		fatal(err)
	}

	rep := rahtm.Measure(topo, w.Graph, mapping)
	fmt.Printf("workload  : %s (%d processes on %s, %d per node)\n", w.Name, w.Procs(), topo, *conc)
	fmt.Printf("quality   : %s\n", rep)
	comm, err := rahtm.CommTime(topo, w.Graph, mapping, rahtm.Model{LinkBandwidth: *linkBW})
	if err != nil {
		fatal(err)
	}
	fmt.Printf("comm time : %.6gs/iteration (link %.6gs, injection %.6gs, ejection %.6gs)\n",
		comm.Time, comm.LinkTime, comm.InjectionTime, comm.EjectionTime)

	if *report {
		// Counters-only form: the evaluation routes traffic through the
		// same stencil cache as the mapper, so the cache and solver
		// counters reflect this run (plus any -mapper pipeline work).
		if err := rahtm.WriteTelemetryReport(os.Stderr, nil); err != nil {
			fatal(err)
		}
	}
}

// newRequest builds the request the workload and topology flags describe.
func newRequest(workload, gridSpec, topoSpec string, procs, conc int) (rahtm.Request, error) {
	req := rahtm.Request{Workload: workload, Procs: procs, Conc: conc}
	var err error
	if req.Topo, err = topology.ParseDims(topoSpec); err != nil {
		return req, err
	}
	if gridSpec != "" {
		req.Grid, err = topology.ParseDims(gridSpec)
	}
	return req, err
}

// readMapFileTopo reads either map-file format with validation against topo.
func readMapFileTopo(path string, topo *rahtm.Torus) (rahtm.Mapping, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return rahtm.ReadMapFile(f, topo)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "rahtm-sim:", err)
	os.Exit(1)
}
