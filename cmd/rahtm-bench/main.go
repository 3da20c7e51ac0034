// Command rahtm-bench regenerates the paper's evaluation tables and
// figures on the simulated platform:
//
//	rahtm-bench -fig 8            # overall execution time (Figure 8)
//	rahtm-bench -fig 9            # comm/comp fractions    (Figure 9)
//	rahtm-bench -fig 10           # communication time     (Figure 10)
//	rahtm-bench -fig opt          # optimization time      (Section V-B)
//	rahtm-bench -fig scale        # 512/4k/16k/64k scaling trajectory
//	rahtm-bench -fig all
//
// Scale and topology are adjustable:
//
//	rahtm-bench -topo 4x4x4x4x2 -procs 16384 -conc 32 -fig 10
//
// defaults to a laptop-scale configuration (4x4x4 torus, 256 processes,
// concentration 4) that finishes in seconds.
//
// With -serve-addr the command becomes a load-test client for a running
// rahtm-serve daemon, reporting latency percentiles and the cache-hit rate:
//
//	rahtm-bench -serve-addr localhost:8080 -requests 64 -concurrency 8 -json load.json
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"rahtm"
	"rahtm/internal/topology"
)

func main() {
	var (
		topoSpec = flag.String("topo", "4x4x4", "torus dimensions, e.g. 4x4x4x4x2")
		procs    = flag.Int("procs", 256, "number of MPI processes")
		conc     = flag.Int("conc", 4, "processes per node (concentration factor)")
		fig      = flag.String("fig", "all", "which result to regenerate: 8, 9, 10, opt, scale, or all")
		scaleMax = flag.Int("scale-max", 16384, "-fig scale: largest process count of the 512/4096/16384/65536 ladder to run")
		beam     = flag.Int("beam", 0, "Phase 3 beam width override (0 = paper default 64)")
		orient   = flag.Int("orient", 0, "Phase 3 orientation cap override (0 = default)")
		timeout  = flag.Duration("timeout", 0, "time budget for the whole run; on expiry RAHTM degrades to best-so-far mappings (client mode: per-request deadline)")
		srvAddr  = flag.String("serve-addr", "", "client mode: load-test the rahtm-serve daemon at this address instead of benchmarking locally")
		srvReqs  = flag.Int("requests", 32, "client mode: total requests to issue")
		srvConc  = flag.Int("concurrency", 4, "client mode: concurrent request goroutines")
		workers  = flag.Int("parallelism", 0, "RAHTM scheduler worker goroutines (0 = GOMAXPROCS, 1 = sequential); results are identical for every setting")
		verbose  = flag.Bool("verbose", false, "log one line per pipeline span (phase envelopes and scheduler jobs) to stderr")
		jsonOut  = flag.String("json", "", "also write machine-readable results (per-case MCL, wall times, pipeline phase stats, counter deltas) to this file")
		pprofOut = flag.String("pprof", "", "write a CPU profile to this file")
		memOut   = flag.String("memprofile", "", "write a heap profile to this file at exit")
		metrics  = flag.String("metrics-addr", "", "serve live telemetry (/metrics progress+metrics snapshot, JSON or Prometheus text) on this address while benchmarking")
		traceOut = flag.String("trace-out", "", "write the RAHTM scheduler span timeline here (Chrome trace-event JSON; a .jsonl suffix selects JSONL)")
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

	t, err := parseTopo(*topoSpec)
	if err != nil {
		fatal(err)
	}
	if t.N()**conc != *procs {
		fatal(fmt.Errorf("%d processes != %d nodes x %d concentration", *procs, t.N(), *conc))
	}
	ws, err := rahtm.Suite(*procs)
	if err != nil {
		fatal(err)
	}

	if *srvAddr != "" {
		must(runServeClient(*srvAddr, ws, t.Dims(), *conc, *srvReqs, *srvConc, *timeout, *jsonOut))
		return
	}
	rahtmMapper := rahtm.Mapper{Parallelism: *workers}
	if *beam > 0 {
		rahtmMapper.Merge.BeamWidth = *beam
	}
	if *orient > 0 {
		rahtmMapper.Merge.MaxOrientations = *orient
	}
	// Observer stack: logging, span recording and live progress compose
	// through a tee on the context's scope. Spans from every pipeline run
	// of the session land in one timeline.
	var observers []rahtm.Observer
	var recorder *rahtm.SpanRecorder
	var tracker *rahtm.ProgressTracker
	if *verbose {
		observers = append(observers, rahtm.NewLogObserver(os.Stderr))
		eff := *workers
		if eff == 0 {
			eff = runtime.GOMAXPROCS(0)
		}
		fmt.Fprintf(os.Stderr, "rahtm-bench: scheduler parallelism %d (GOMAXPROCS %d)\n", eff, runtime.GOMAXPROCS(0))
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
	if *metrics != "" {
		srv, err := rahtm.ServeMetrics(*metrics, tracker.Snapshot)
		if err != nil {
			fatal(err)
		}
		defer srv.Close()
		fmt.Fprintf(os.Stderr, "rahtm-bench: telemetry endpoint at %s/metrics\n", srv.URL())
	}
	ms := rahtm.StandardMappers(t)
	ms[len(ms)-1] = rahtmMapper

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
	if *memOut != "" {
		defer func() {
			f, err := os.Create(*memOut)
			if err != nil {
				fatal(err)
			}
			defer f.Close()
			runtime.GC() // settle live-heap accounting before the snapshot
			must(pprof.WriteHeapProfile(f))
		}()
	}

	fmt.Printf("RAHTM evaluation on %s, %d processes, concentration %d\n\n", t, *procs, *conc)

	needCompare := *fig == "8" || *fig == "10" || *fig == "all"
	var cs []*rahtm.Comparison
	if needCompare {
		start := time.Now()
		cs, err = rahtm.CompareSuiteCtx(ctx, ws, t, *conc, ms, rahtm.Model{})
		if err != nil {
			fatal(err)
		}
		fmt.Printf("(suite mapped and simulated in %v)\n\n", time.Since(start).Round(time.Millisecond))
	}

	var pipes []pipelineJSON
	var scale []scaleJSON
	switch *fig {
	case "8":
		must(rahtm.WriteTable(os.Stdout, cs, "exec"))
	case "9":
		must(rahtm.CommFractionTable(os.Stdout, ws, t, *conc, ms[0], rahtm.Model{}))
	case "10":
		must(rahtm.WriteTable(os.Stdout, cs, "comm"))
	case "opt":
		pipes = optimizationTime(ctx, ws, t, *conc, rahtmMapper)
	case "scale":
		scale = scaleTrajectory(ctx, rahtmMapper, *scaleMax)
	case "all":
		must(rahtm.CommFractionTable(os.Stdout, ws, t, *conc, ms[0], rahtm.Model{}))
		fmt.Println()
		must(rahtm.WriteTable(os.Stdout, cs, "comm"))
		fmt.Println()
		must(rahtm.WriteTable(os.Stdout, cs, "exec"))
		fmt.Println()
		pipes = optimizationTime(ctx, ws, t, *conc, rahtmMapper)
	default:
		fatal(fmt.Errorf("unknown -fig %q (want 8, 9, 10, opt, scale or all)", *fig))
	}

	if *jsonOut != "" {
		if pipes == nil && *fig != "scale" {
			// The selected figure did not run the pipeline stats pass;
			// run it silently so the JSON report is complete.
			pipes = collectPipelineStats(ctx, ws, t, *conc, rahtmMapper)
		}
		must(writeJSON(*jsonOut, t, *procs, *conc, *workers, *fig, cs, pipes, scale))
	}

	if *traceOut != "" && recorder != nil {
		must(writeTrace(*traceOut, recorder))
		fmt.Fprintf(os.Stderr, "rahtm-bench: wrote %d spans to %s\n", recorder.Len(), *traceOut)
	}
	if *report {
		// The session ran many pipelines, so print the counters-only
		// form; per-workload phase breakdowns are in -fig opt / -json.
		must(rahtm.WriteTelemetryReport(os.Stderr, nil))
	}
}

// writeTrace exports the recorded span timeline: Chrome trace-event JSON
// by default, JSONL when the path ends in .jsonl.
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

// benchJSON is the machine-readable report written by -json: enough to
// track the performance trajectory of the mapper across revisions.
type benchJSON struct {
	Config struct {
		Topology    string `json:"topology"`
		Procs       int    `json:"procs"`
		Conc        int    `json:"conc"`
		Parallelism int    `json:"parallelism"` // requested; 0 = GOMAXPROCS
		GOMAXPROCS  int    `json:"gomaxprocs"`
		Fig         string `json:"fig"`
	} `json:"config"`
	Cases     []caseJSON     `json:"cases,omitempty"`
	Pipelines []pipelineJSON `json:"pipelines,omitempty"`
	// Scale is the -fig scale trajectory: one row per rung of the paper's
	// 512/4096/16384-process ladder.
	Scale []scaleJSON `json:"scale,omitempty"`
	// Metrics is the end-of-run snapshot of the process-wide telemetry
	// counters (cumulative across every pipeline in the session).
	Metrics map[string]int64 `json:"metrics,omitempty"`
	// Serve is the client-mode (-serve-addr) load-test report.
	Serve *serveJSON `json:"serve,omitempty"`
}

// caseJSON is one (workload, mapper) comparison row.
type caseJSON struct {
	Workload  string  `json:"workload"`
	Mapper    string  `json:"mapper"`
	MCL       float64 `json:"mcl"`
	HopBytes  float64 `json:"hop_bytes"`
	CommTimeS float64 `json:"comm_time_s"`
	ExecTimeS float64 `json:"exec_time_s"`
	RelComm   float64 `json:"rel_comm"`
	RelExec   float64 `json:"rel_exec"`
	MapWallMS float64 `json:"map_wall_ms"`
	Err       string  `json:"error,omitempty"`
}

// pipelineJSON is one workload's RAHTM pipeline phase breakdown.
type pipelineJSON struct {
	Workload       string  `json:"workload"`
	ClusterMS      float64 `json:"cluster_ms"`
	MapMS          float64 `json:"map_ms"`
	MergeMS        float64 `json:"merge_ms"`
	MapWorkMS      float64 `json:"map_work_ms"`
	MergeWorkMS    float64 `json:"merge_work_ms"`
	Subproblems    int     `json:"subproblems"`
	SubproblemsHit int     `json:"subproblems_hit"`
	Merges         int     `json:"merges"`
	MergesHit      int     `json:"merges_hit"`
	Parallelism    int     `json:"parallelism"` // effective worker count
	MCL            float64 `json:"mcl"`
	Degraded       bool    `json:"degraded"`
	// DefaultFallback is set when the identity node order beat every
	// searched candidate (PhaseStats.DefaultFallback).
	DefaultFallback bool   `json:"default_fallback"`
	Err             string `json:"error,omitempty"`

	// Telemetry counter deltas attributed to this pipeline run.
	StencilHits    int64 `json:"stencil_hits"`
	StencilMisses  int64 `json:"stencil_misses"`
	LPPivots       int64 `json:"lp_pivots"`
	MILPNodes      int64 `json:"milp_nodes"`
	AnnealMoves    int64 `json:"anneal_moves"`
	BeamCandidates int64 `json:"beam_candidates"`
	BeamPruned     int64 `json:"beam_pruned"`
	SymmetryEvals  int64 `json:"symmetry_evals"`
	BoundSkips     int64 `json:"bound_skips"`  // merge combos the running bound rejected
	ScreenSkips    int64 `json:"screen_skips"` // the bound skips the channel-subset prescreen made
}

// addMetrics fills the counter-delta columns from a per-run snapshot
// difference (rahtm.Metrics().Sub of the pre-run snapshot).
func (p *pipelineJSON) addMetrics(d rahtm.MetricsSnapshot) {
	p.StencilHits = d.Counter("routing.stencil.hits")
	p.StencilMisses = d.Counter("routing.stencil.misses")
	p.LPPivots = d.Counter("lp.pivots")
	p.MILPNodes = d.Counter("milp.nodes")
	p.AnnealMoves = d.Counter("anneal.moves")
	p.BeamCandidates = d.Counter("merge.beam.candidates")
	p.BeamPruned = d.Counter("merge.beam.candidates") - d.Counter("merge.beam.kept")
	p.SymmetryEvals = d.Counter("merge.symmetry.evals")
	p.BoundSkips = d.Counter("merge.beam.bound_skips")
	p.ScreenSkips = d.Counter("merge.beam.screen_skips")
}

func pipelineRow(w *rahtm.Workload, res *rahtm.PipelineResult, err error) pipelineJSON {
	p := pipelineJSON{Workload: w.Name}
	if err != nil {
		p.Err = err.Error()
		return p
	}
	s := res.Stats
	p.ClusterMS = ms(s.ClusterTime)
	p.MapMS = ms(s.MapTime)
	p.MergeMS = ms(s.MergeTime)
	p.MapWorkMS = ms(s.MapWorkTime)
	p.MergeWorkMS = ms(s.MergeWorkTime)
	p.Subproblems = s.Subproblems
	p.SubproblemsHit = s.SubproblemsHit
	p.Merges = s.Merges
	p.MergesHit = s.MergesHit
	p.Parallelism = s.Parallelism
	p.MCL = res.MCL
	p.Degraded = s.Degraded
	p.DefaultFallback = s.DefaultFallback
	return p
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// collectPipelineStats runs the RAHTM pipeline per workload solely to
// gather phase statistics for the JSON report.
func collectPipelineStats(ctx context.Context, ws []*rahtm.Workload, t *rahtm.Torus, conc int, m rahtm.Mapper) []pipelineJSON {
	out := make([]pipelineJSON, 0, len(ws))
	for _, w := range ws {
		prev := rahtm.Metrics()
		res, err := solveDetail(ctx, w, t, conc, m)
		row := pipelineRow(w, res, err)
		row.addMetrics(rahtm.Metrics().Sub(prev))
		out = append(out, row)
	}
	return out
}

// solveDetail runs the configured RAHTM pipeline through rahtm.Solve and
// returns its full pipeline output.
func solveDetail(ctx context.Context, w *rahtm.Workload, t *rahtm.Torus, conc int, m rahtm.Mapper) (*rahtm.PipelineResult, error) {
	res, err := rahtm.Solve(ctx, rahtm.Request{Work: w, Torus: t, Conc: conc, Config: &m})
	if err != nil {
		return nil, err
	}
	return res.Detail, nil
}

func writeJSON(path string, t *rahtm.Torus, procs, conc, workers int, fig string, cs []*rahtm.Comparison, pipes []pipelineJSON, scale []scaleJSON) error {
	var rep benchJSON
	rep.Config.Topology = t.String()
	rep.Config.Procs = procs
	rep.Config.Conc = conc
	rep.Config.Parallelism = workers
	rep.Config.GOMAXPROCS = runtime.GOMAXPROCS(0)
	rep.Config.Fig = fig
	for _, c := range cs {
		for _, r := range c.Rows {
			rep.Cases = append(rep.Cases, caseJSON{
				Workload:  c.Workload,
				Mapper:    r.Mapper,
				MCL:       r.MCL,
				HopBytes:  r.HopBytes,
				CommTimeS: r.CommTime,
				ExecTimeS: r.ExecTime,
				RelComm:   r.RelComm,
				RelExec:   r.RelExec,
				MapWallMS: ms(r.MapTime),
				Err:       r.Err,
			})
		}
	}
	rep.Pipelines = pipes
	rep.Scale = scale
	rep.Metrics = rahtm.Metrics().Counters
	b, err := json.MarshalIndent(&rep, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// scaleJSON is one rung of the -fig scale ladder: the pipeline phase row
// plus the configuration it ran at, the end-to-end wall time, and the
// process's peak RSS when the rung finished. The RSS is a high-water mark,
// so it is monotone across rungs; the last rung's value is the run's peak.
type scaleJSON struct {
	Procs     int     `json:"procs"`
	Topology  string  `json:"topology"`
	Conc      int     `json:"conc"`
	WallMS    float64 `json:"wall_ms"`
	PeakRSSMB float64 `json:"peak_rss_mb"`
	pipelineJSON
}

// scaleLadder is the §V scaling ladder: a periodic 2-D halo exchange (the
// only suite workload whose process grid exists at every rung) on the
// BG/Q-style 2-ary tori at 512, 4096, the paper's full 16,384 processes,
// and a 65,536-process rung on a 2048-node torus.
var scaleLadder = []struct {
	procs, rows, cols int
	topo              string
	conc              int
}{
	{512, 16, 32, "4x4x4x2", 4},
	{4096, 64, 64, "4x4x4x4", 16},
	{16384, 128, 128, "4x4x4x4x2", 32},
	{65536, 256, 256, "4x4x4x4x4x2", 32},
}

// scaleTrajectory runs the ladder up to maxProcs and reports one row per
// rung. Counter deltas attribute bound skips and solver effort to each
// rung individually.
func scaleTrajectory(ctx context.Context, m rahtm.Mapper, maxProcs int) []scaleJSON {
	fmt.Println("pipeline scaling trajectory (halo-2d)")
	fmt.Printf("%-7s %-12s %6s %12s %12s %10s %12s %12s %10s\n", "procs", "topology", "conc", "merge", "wall", "mcl", "bound-skips", "screen-skips", "peak-rss")
	var out []scaleJSON
	for _, lvl := range scaleLadder {
		if lvl.procs > maxProcs {
			continue
		}
		t, err := parseTopo(lvl.topo)
		if err != nil {
			fatal(err)
		}
		w := rahtm.Halo2D(lvl.rows, lvl.cols, 1)
		prev := rahtm.Metrics()
		start := time.Now()
		res, err := solveDetail(ctx, w, t, lvl.conc, m)
		wall := time.Since(start)
		row := scaleJSON{
			Procs:        lvl.procs,
			Topology:     t.String(),
			Conc:         lvl.conc,
			WallMS:       ms(wall),
			PeakRSSMB:    peakRSSMB(),
			pipelineJSON: pipelineRow(w, res, err),
		}
		row.addMetrics(rahtm.Metrics().Sub(prev))
		out = append(out, row)
		if err != nil {
			fmt.Printf("%-7d %-12s %6d  error: %v\n", lvl.procs, lvl.topo, lvl.conc, err)
			continue
		}
		fmt.Printf("%-7d %-12s %6d %12v %12v %10.3f %12d %12d %8.0fMB\n",
			lvl.procs, lvl.topo, lvl.conc,
			res.Stats.MergeTime.Round(time.Millisecond), wall.Round(time.Millisecond),
			res.MCL, row.BoundSkips, row.ScreenSkips, row.PeakRSSMB)
	}
	return out
}

// optimizationTime reports RAHTM's offline mapping cost per benchmark
// (the Section V-B discussion: minutes to hours at the paper's scale) and
// returns the per-workload phase breakdowns for the JSON report.
func optimizationTime(ctx context.Context, ws []*rahtm.Workload, t *rahtm.Torus, conc int, m rahtm.Mapper) []pipelineJSON {
	fmt.Println("offline mapping computation time (Section V-B)")
	fmt.Printf("%-10s %12s %12s %12s %12s\n", "benchmark", "cluster", "map", "merge", "total")
	out := make([]pipelineJSON, 0, len(ws))
	for _, w := range ws {
		prev := rahtm.Metrics()
		res, err := solveDetail(ctx, w, t, conc, m)
		row := pipelineRow(w, res, err)
		row.addMetrics(rahtm.Metrics().Sub(prev))
		out = append(out, row)
		if err != nil {
			fmt.Printf("%-10s error: %v\n", w.Name, err)
			continue
		}
		s := res.Stats
		total := s.ClusterTime + s.MapTime + s.MergeTime
		note := ""
		if s.Degraded {
			note = "  (degraded: budget expired)"
		}
		fmt.Printf("%-10s %12v %12v %12v %12v%s\n", w.Name,
			s.ClusterTime.Round(time.Millisecond), s.MapTime.Round(time.Millisecond),
			s.MergeTime.Round(time.Millisecond), total.Round(time.Millisecond), note)
	}
	return out
}

// parseTopo builds the torus an "AxBxC" spec names (the -topo flag and
// the scale ladder's rungs).
func parseTopo(spec string) (*rahtm.Torus, error) {
	dims, err := topology.ParseDims(spec)
	if err != nil {
		return nil, err
	}
	return rahtm.NewTorus(dims...), nil
}

func must(err error) {
	if err != nil {
		fatal(err)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "rahtm-bench:", err)
	os.Exit(1)
}
