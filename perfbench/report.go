package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
)

// The metric names BENCHMARK.json declares. A --trace 0 run prints exactly
// the end-to-end set in its result line, a --trace 1 run exactly the
// per-layer set; TestBenchmarkJSONMatches keeps the lists and the file in
// step.
var endToEndNames = []string{
	"setup_s", "norm_throughput_ops_s", "norm_latency_p50_ms", "norm_cpu_ms_per_op", "mcl_ratio", "peak_rss_mb",
}

var perLayerNames = []string{
	"hiermap.busy_ms", "hiermap.solves", "routing.stencil_hits",
	"hiermap.anneal_moves", "hiermap.anneal_accept_ratio",
	"merge.busy_ms", "merge.candidates", "merge.kept_ratio", "merge.symmetry_evals", "merge.dense_ratio",
	"cluster.busy_ms", "core.self_ms", "rahtm.tail_ms",
	"core.subproblem_reuse_ratio", "core.merge_reuse_ratio", "core.fallback_ratio",
	"routing.mcl_eval_ms", "routing.stencil_builds",
	"workload.gen_ms", "graph.freeze_ms", "graph.builds",
	"rahtm.decode_ms", "rahtm.materialize_ms", "rahtm.key_ms", "rahtm.encode_ms",
	"serve.hit_p50_ms", "serve.cold_p50_ms", "serve.baseline_p50_ms", "serve.degraded_p50_ms",
	"serve.queue_ms", "serve.solve_ms", "serve.overhead_ms",
	"serve.cache_hit_ratio", "serve.degraded_ratio", "serve.rejected",
	"lp.pivots", "milp.nodes",
	"gc.cycles_per_op", "gc.alloc_mb_per_op",
	"trace.coverage_min", "trace.overhead_pct",
	"host.steal_pct", "host.speed", "host.cpu_speed",
}

// metric is one value of the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metrics is an insertion-ordered metric table with an optional note per
// metric for the human-readable report.
type metrics struct {
	names []string
	vals  map[string]metric
	notes map[string]string
}

func newMetrics() *metrics {
	return &metrics{vals: map[string]metric{}, notes: map[string]string{}}
}

func (m *metrics) set(name string, v float64, unit string) {
	if _, ok := m.vals[name]; !ok {
		m.names = append(m.names, name)
	}
	m.vals[name] = metric{Value: v, Unit: unit}
}

func (m *metrics) note(name, text string) { m.notes[name] = text }

// report is everything one run prints.
type report struct {
	workload        string
	endToEnd, layer *metrics
	// lines are free-form report lines (quality, host noise, per-instance
	// layer splits) printed before the metric tables.
	lines []string
	gate  *gate
	// traces are the traced pass's records, written out when the run ends.
	traces []any
}

// newReport returns an empty report; the workload sets its gate's checks.
func newReport(workload string) *report {
	return &report{workload: workload, endToEnd: newMetrics(), layer: newMetrics(), gate: newGate()}
}

func (r *report) printf(format string, args ...any) {
	r.lines = append(r.lines, fmt.Sprintf(format, args...))
}

// resultLine is the machine-readable last line of a run.
type resultLine struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// write prints the human-readable report and then, as the last line, the
// result object holding the declared metrics of the run's kind. A declared
// metric the run did not produce is an error: the result line must carry
// the whole declared set.
func (r *report) write(w io.Writer, traced bool) error {
	for _, l := range r.lines {
		fmt.Fprintln(w, l)
	}
	checks := append([]string(nil), r.gate.checks...)
	sort.Strings(checks)
	fmt.Fprintf(w, "correctness: %d ops attempted, %d failed\n", r.gate.attempted, r.gate.failed)
	for _, c := range checks {
		fmt.Fprintf(w, "  check %-22s %d failed\n", c, r.gate.byCheck[c])
	}
	printTable(w, "end-to-end", r.endToEnd)
	if traced {
		printTable(w, "per-layer (traced pass)", r.layer)
	}
	names, src := endToEndNames, r.endToEnd
	if traced {
		names, src = perLayerNames, r.layer
	}
	out := resultLine{
		Correct:   r.gate.failed == 0 && r.gate.attempted > 0,
		Attempted: r.gate.attempted,
		Failed:    r.gate.failed,
		Metrics:   make(map[string]metric, len(names)),
	}
	for _, n := range names {
		v, ok := src.vals[n]
		if !ok {
			return fmt.Errorf("%s: declared metric %s was not measured", r.workload, n)
		}
		if math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
			return fmt.Errorf("%s: metric %s is %v", r.workload, n, v.Value)
		}
		out.Metrics[n] = v
	}
	b, err := json.Marshal(out)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", b)
	return err
}

func printTable(w io.Writer, title string, m *metrics) {
	fmt.Fprintf(w, "%s:\n", title)
	for _, n := range m.names {
		v := m.vals[n]
		line := fmt.Sprintf("  %-28s %14.6g %-6s", n, v.Value, v.Unit)
		if note := m.notes[n]; note != "" {
			line += "  " + note
		}
		fmt.Fprintln(w, line)
	}
}
