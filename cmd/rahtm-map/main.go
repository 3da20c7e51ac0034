// Command rahtm-map computes a task mapping offline and writes it as a
// BG/Q-style map file (one node rank per line, indexed by process rank):
//
//	rahtm-map -workload CG -procs 256 -topo 4x4x4 -conc 4 -o cg.map
//	rahtm-map -workload halo2d -grid 16x16 -topo 4x4x4 -conc 4
//	rahtm-map -graph comm.txt -grid 16x16 -topo 4x4x4 -conc 4
//
// The mapper defaults to RAHTM; -mapper selects a baseline instead
// (ABCDET-style specs, hilbert, rht, greedy, random).
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"runtime/pprof"
	"strconv"
	"strings"
	"time"

	"rahtm"
)

func main() {
	var (
		topoSpec = flag.String("topo", "4x4x4", "torus dimensions, e.g. 4x4x4x4x2")
		wl       = flag.String("workload", "", "benchmark: BT, SP, CG, halo2d, halo3d, random")
		procs    = flag.Int("procs", 0, "number of processes (defaults to nodes x conc)")
		conc     = flag.Int("conc", 1, "processes per node")
		gridSpec = flag.String("grid", "", "logical process grid, e.g. 16x16 (halo/graph workloads)")
		graphIn  = flag.String("graph", "", "read the communication graph from this file instead")
		mapper   = flag.String("mapper", "rahtm", "mapper: "+strings.Join(rahtm.MapperNames(), ", ")+", or a permutation spec like ABCDET")
		out      = flag.String("o", "", "output map file (default stdout)")
		format   = flag.String("format", "ranks", "map file format: ranks (one node per line) or coords (BG/Q tuples)")
		quiet    = flag.Bool("q", false, "suppress the quality report")
		timeout  = flag.Duration("timeout", 0, "mapping time budget; on expiry RAHTM returns its best mapping so far")
		workers  = flag.Int("parallelism", 0, "RAHTM scheduler worker goroutines (0 = all CPUs, 1 = sequential); results are identical for every setting")
		verbose  = flag.Bool("verbose", false, "log one line per pipeline span (phase envelopes and scheduler jobs) to stderr")
		pprofOut = flag.String("pprof", "", "write a CPU profile of the mapping computation to this file")
		metrics  = flag.String("metrics-addr", "", "serve live telemetry (/metrics progress+metrics snapshot, JSON or Prometheus text) on this address while mapping")
		traceOut = flag.String("trace-out", "", "write the scheduler span timeline here (Chrome trace-event JSON; a .jsonl suffix selects one-span-per-line JSONL)")
		report   = flag.Bool("report", false, "print the end-of-run telemetry report to stderr")
	)
	flag.Parse()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}

	t, err := parseDims(*topoSpec)
	if err != nil {
		fatal(err)
	}
	topo := rahtm.NewTorus(t...)
	if *procs == 0 {
		*procs = topo.N() * *conc
	}

	w, err := buildWorkload(*wl, *graphIn, *gridSpec, *procs)
	if err != nil {
		fatal(err)
	}

	factory, err := rahtm.MapperByName(*mapper)
	if err != nil {
		fatal(err)
	}
	m := factory(topo)

	// Assemble the observer stack: logging, span recording and live
	// progress compose through a tee on the context's scope. Only the
	// RAHTM pipeline emits spans; for baseline mappers the process-wide
	// counters (and hence -report and the /metrics endpoint) still work.
	var observers []rahtm.Observer
	var recorder *rahtm.SpanRecorder
	var tracker *rahtm.ProgressTracker
	if *verbose {
		observers = append(observers, rahtm.NewLogObserver(os.Stderr))
	}
	if *traceOut != "" {
		recorder = rahtm.NewSpanRecorder()
		observers = append(observers, recorder)
	}
	if *metrics != "" {
		tracker = rahtm.NewProgressTracker()
		observers = append(observers, tracker)
	}

	ctx = rahtm.WithScope(ctx, &rahtm.Scope{Observer: rahtm.TeeObservers(observers...)})
	if rm, ok := m.(rahtm.Mapper); ok {
		rm.Parallelism = *workers
		m = rm
	} else if *traceOut != "" {
		fmt.Fprintf(os.Stderr, "rahtm-map: note: -trace-out records the RAHTM scheduler; mapper %q emits no spans\n", m.Name())
	}

	if *metrics != "" {
		srv, err := rahtm.ServeMetrics(*metrics, tracker.Snapshot)
		if err != nil {
			fatal(err)
		}
		defer srv.Close()
		fmt.Fprintf(os.Stderr, "rahtm-map: telemetry endpoint at %s/metrics\n", srv.URL())
	}

	if *pprofOut != "" {
		f, err := os.Create(*pprofOut)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fatal(err)
		}
		defer pprof.StopCPUProfile()
	}

	start := time.Now()
	var mapping rahtm.Mapping
	var stats *rahtm.PhaseStats
	if rm, ok := m.(rahtm.Mapper); ok {
		res, err := rm.PipelineCtx(ctx, w, topo, *conc)
		if err != nil {
			if errors.Is(err, context.Canceled) {
				fatal(fmt.Errorf("interrupted before a mapping was available"))
			}
			fatal(err)
		}
		if res.Stats.Degraded {
			fmt.Fprintln(os.Stderr, "rahtm-map: time budget expired; returning the best mapping found so far")
		}
		if *verbose {
			fmt.Fprintf(os.Stderr, "rahtm-map: scheduler parallelism %d (map work %v, merge work %v)\n",
				res.Stats.Parallelism, res.Stats.MapWorkTime.Round(time.Millisecond),
				res.Stats.MergeWorkTime.Round(time.Millisecond))
		}
		mapping = res.ProcToNode
		stats = &res.Stats
	} else {
		mapping, err = m.MapProcs(w, topo, *conc)
		if err != nil {
			fatal(err)
		}
	}
	elapsed := time.Since(start)

	var sink *os.File = os.Stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		sink = f
	}
	header := fmt.Sprintf("rahtm-map: workload=%s mapper=%s topo=%s conc=%d", w.Name, m.Name(), topo, *conc)
	switch *format {
	case "ranks":
		err = rahtm.WriteMapFileRanks(sink, mapping, header)
	case "coords":
		err = rahtm.WriteMapFileCoords(sink, topo, mapping, header)
	default:
		err = fmt.Errorf("unknown -format %q (want ranks or coords)", *format)
	}
	if err != nil {
		fatal(err)
	}

	if !*quiet {
		rep := rahtm.Measure(topo, w.Graph, mapping)
		fmt.Fprintf(os.Stderr, "mapped %d processes with %s in %v\n%s\n",
			w.Procs(), m.Name(), elapsed.Round(time.Millisecond), rep)
	}

	if *traceOut != "" && recorder != nil {
		if err := writeTrace(*traceOut, recorder); err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "rahtm-map: wrote %d spans to %s\n", recorder.Len(), *traceOut)
	}
	if *report {
		if err := rahtm.WriteTelemetryReport(os.Stderr, stats); err != nil {
			fatal(err)
		}
	}
}

// writeTrace exports the recorded span timeline: Chrome trace-event JSON
// (open in Perfetto / chrome://tracing) by default, JSONL when the path
// ends in .jsonl.
func writeTrace(path string, rec *rahtm.SpanRecorder) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if strings.HasSuffix(path, ".jsonl") {
		err = rec.WriteJSONL(f)
	} else {
		err = rec.WriteChromeTrace(f)
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

func buildWorkload(name, graphIn, gridSpec string, procs int) (*rahtm.Workload, error) {
	var grid []int
	if gridSpec != "" {
		g, err := parseDims(gridSpec)
		if err != nil {
			return nil, err
		}
		grid = g
	}
	if graphIn != "" {
		f, err := os.Open(graphIn)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		g, err := rahtm.ReadGraph(f)
		if err != nil {
			return nil, err
		}
		return &rahtm.Workload{Name: graphIn, Grid: grid, Graph: g, CommFraction: 0.5}, nil
	}
	switch strings.ToLower(name) {
	case "bt", "sp", "cg":
		return rahtm.WorkloadByName(name, procs)
	case "halo2d":
		if len(grid) != 2 {
			return nil, fmt.Errorf("halo2d needs -grid RxC")
		}
		return rahtm.Halo2D(grid[0], grid[1], 10), nil
	case "halo3d":
		if len(grid) != 3 {
			return nil, fmt.Errorf("halo3d needs -grid XxYxZ")
		}
		return rahtm.Halo3D(grid[0], grid[1], grid[2], 10), nil
	case "random":
		return rahtm.RandomNeighbors(procs, 4, 10, 1), nil
	case "":
		return nil, fmt.Errorf("need -workload or -graph")
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

func parseDims(spec string) ([]int, error) {
	parts := strings.Split(strings.ToLower(strings.TrimSpace(spec)), "x")
	dims := make([]int, 0, len(parts))
	for _, p := range parts {
		v, err := strconv.Atoi(p)
		if err != nil || v < 1 {
			return nil, fmt.Errorf("bad dimension spec %q", spec)
		}
		dims = append(dims, v)
	}
	return dims, nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "rahtm-map:", err)
	os.Exit(1)
}
