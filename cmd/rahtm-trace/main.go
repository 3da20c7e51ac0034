// Command rahtm-trace inspects and converts communication profiles (the
// IPM-profile stand-in format):
//
//	rahtm-trace -in app.profile -stats           # volumes, degree, partners
//	rahtm-trace -in app.profile -out comm.txt    # expand to a plain graph
//	rahtm-trace -graph comm.txt -profile out.pr  # wrap a graph as a profile
//
// With -request the profile becomes a ready-to-POST rahtm-serve request:
// a rahtm.Request JSON with the communication graph inlined,
//
//	rahtm-trace -in app.profile -topo 4x4x4 -conc 4 -request req.json
//	curl -s localhost:8080/solve -d @req.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"

	"rahtm"
	"rahtm/internal/topology"
)

func main() {
	var (
		in       = flag.String("in", "", "input profile file")
		graphIn  = flag.String("graph", "", "input plain graph file (instead of -in)")
		out      = flag.String("out", "", "write the expanded communication graph here")
		profOut  = flag.String("profile", "", "write a profile here (for -graph input)")
		reqOut   = flag.String("request", "", "write a rahtm-serve request JSON (inlined graph) here; needs -topo")
		topoSpec = flag.String("topo", "", "torus dimensions for -request, e.g. 4x4x4")
		conc     = flag.Int("conc", 1, "processes per node for -request")
		mapper   = flag.String("mapper", "", "mapper name for -request (empty = rahtm)")
		deadline = flag.Int64("deadline-ms", 0, "solve budget in milliseconds for -request (0 = none)")
		stats    = flag.Bool("stats", true, "print traffic statistics")
		report   = flag.Bool("report", false, "print the telemetry counter report (profile expansion volume) to stderr")
	)
	flag.Parse()

	var g *rahtm.Comm
	switch {
	case *in != "":
		f, err := os.Open(*in)
		if err != nil {
			fatal(err)
		}
		p, err := rahtm.ParseProfile(f)
		f.Close()
		if err != nil {
			fatal(err)
		}
		g, err = p.Graph()
		if err != nil {
			fatal(err)
		}
	case *graphIn != "":
		f, err := os.Open(*graphIn)
		if err != nil {
			fatal(err)
		}
		var gerr error
		g, gerr = rahtm.ReadGraph(f)
		f.Close()
		if gerr != nil {
			fatal(gerr)
		}
	default:
		fatal(fmt.Errorf("need -in or -graph"))
	}

	if *stats {
		printStats(g)
	}
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			fatal(err)
		}
		if _, err := g.WriteTo(f); err != nil {
			fatal(err)
		}
		if err := f.Close(); err != nil {
			fatal(err)
		}
	}
	if *profOut != "" {
		f, err := os.Create(*profOut)
		if err != nil {
			fatal(err)
		}
		if err := rahtm.ProfileFromGraph(g).Write(f); err != nil {
			fatal(err)
		}
		if err := f.Close(); err != nil {
			fatal(err)
		}
	}

	if *reqOut != "" {
		if err := writeRequest(*reqOut, g, *topoSpec, *conc, *mapper, *deadline); err != nil {
			fatal(err)
		}
	}

	if *report {
		if err := rahtm.WriteTelemetryReport(os.Stderr, nil); err != nil {
			fatal(err)
		}
	}
}

// writeRequest emits the graph as a rahtm.Request JSON ready to POST to a
// rahtm-serve daemon's /solve endpoint.
func writeRequest(path string, g *rahtm.Comm, topoSpec string, conc int, mapper string, deadlineMS int64) error {
	if topoSpec == "" {
		return fmt.Errorf("-request needs -topo (torus dimensions, e.g. 4x4x4)")
	}
	dims, err := topology.ParseDims(topoSpec)
	if err != nil {
		return err
	}
	var inline strings.Builder
	if _, err := g.WriteTo(&inline); err != nil {
		return err
	}
	req := rahtm.Request{
		Graph:      inline.String(),
		Topo:       dims,
		Conc:       conc,
		Mapper:     mapper,
		DeadlineMS: deadlineMS,
	}
	// Validate locally so a bad request dies here, not at the daemon.
	if _, _, err := req.Materialize(); err != nil {
		return err
	}
	b, err := json.MarshalIndent(req, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

func printStats(g *rahtm.Comm) {
	n := g.N()
	flows := g.Flows()
	degrees := make([]int, n)
	vols := make([]float64, n)
	for _, f := range flows {
		degrees[f.Src]++
		vols[f.Src] += f.Vol
	}
	maxDeg, maxVol := 0, 0.0
	active := 0
	for v := 0; v < n; v++ {
		if degrees[v] > maxDeg {
			maxDeg = degrees[v]
		}
		if vols[v] > maxVol {
			maxVol = vols[v]
		}
		if degrees[v] > 0 {
			active++
		}
	}
	fmt.Printf("processes      : %d (%d senders)\n", n, active)
	fmt.Printf("directed flows : %d\n", len(flows))
	fmt.Printf("total volume   : %g\n", g.TotalVolume())
	fmt.Printf("max out-degree : %d\n", maxDeg)
	fmt.Printf("max out-volume : %g\n", maxVol)
	// Top flows.
	sorted := append([]rahtm.Flow(nil), flows...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Vol > sorted[j].Vol })
	top := 5
	if len(sorted) < top {
		top = len(sorted)
	}
	if top > 0 {
		fmt.Println("heaviest flows :")
		for _, f := range sorted[:top] {
			fmt.Printf("  %6d -> %-6d %g\n", f.Src, f.Dst, f.Vol)
		}
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "rahtm-trace:", err)
	os.Exit(1)
}
