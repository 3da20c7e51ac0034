package rahtm

// Telemetry surface: the metrics registry, the request scope, span
// observers (timeline recorder, live progress tracker, line log), the HTTP
// endpoint, and the end-of-run report implemented in internal/telemetry.
// Counters are process-wide and always on (the hot paths batch their
// updates in plain locals and flush them once per call, worker or routing
// evaluator; overhead is within 2% of pipeline wall time — see DESIGN.md
// §8). Spans are the pipeline's one trace event: the pipeline
// reports each completed phase envelope and scheduler job to the Observer
// of the Scope on the solve context (or to Request.Observer, which Solve
// moves onto that scope), typically several observers composed with
// TeeObservers.

import (
	"io"

	"rahtm/internal/core"
	"rahtm/internal/telemetry"
)

// Phase names carried by Span.Phase.
const (
	PhaseCluster = telemetry.PhaseCluster
	PhaseMap     = telemetry.PhaseMap
	PhaseMerge   = telemetry.PhaseMerge
)

type (
	// PhaseStats reports where pipeline time went (PipelineResult.Stats).
	PhaseStats = core.PhaseStats
	// Observer consumes completed pipeline spans. Record must be safe for
	// concurrent use: job spans fire from the scheduler's worker goroutines
	// in completion order, which varies run to run.
	Observer = telemetry.Observer
	// Span is one completed unit of pipeline work: a phase envelope or a
	// scheduler job (representative solve, merge, level preparation,
	// sibling fan-out, leaf evaluation).
	Span = telemetry.Span
	// SpanRecorder is an Observer that records every span on a timeline,
	// exportable as JSONL or a Chrome trace-event file.
	SpanRecorder = telemetry.Recorder
	// LogObserver is an Observer that writes one line per span to an
	// io.Writer; it is what `rahtm-map -verbose` and `rahtm-bench -verbose`
	// attach to stderr.
	LogObserver = telemetry.Log
	// ProgressTracker is an Observer that maintains a live Progress view.
	ProgressTracker = telemetry.ProgressTracker
	// Progress is a point-in-time view of a running pipeline.
	Progress = telemetry.Progress
	// MetricsSnapshot is a point-in-time view of the process-wide metrics
	// registry; Sub computes per-run deltas of the cumulative counters.
	MetricsSnapshot = telemetry.Snapshot
	// MetricsServer is a live telemetry HTTP endpoint (/metrics, JSON or
	// Prometheus text).
	MetricsServer = telemetry.Server
	// PhaseTime is one row of the end-of-run telemetry report.
	PhaseTime = telemetry.PhaseTime
	// Scope is a solve's telemetry carrier on its context: a trace ID, a
	// private metrics registry the solver layers write into, and the
	// Observer its spans go to. Solve folds the scope's counters back into
	// the process-wide registry on exit and reports the per-request delta
	// in Result.Metrics; a scope without a registry (&Scope{Observer: o})
	// only carries spans and leaves the counters process-wide.
	Scope = telemetry.Scope
)

var (
	// NewSpanRecorder returns an empty span recorder (timeline zero = now).
	NewSpanRecorder = telemetry.NewRecorder
	// NewProgressTracker returns an empty progress tracker.
	NewProgressTracker = telemetry.NewProgressTracker
	// NewScope builds a request-local telemetry scope; an empty trace ID
	// draws a fresh random one.
	NewScope = telemetry.NewScope
	// WithScope attaches a scope to a context for Solve to pick up.
	WithScope = telemetry.WithScope
	// ScopeFrom retrieves the scope carried by a context (nil when absent).
	ScopeFrom = telemetry.ScopeFrom
	// NewTraceID draws a 16-hex-character random trace identifier.
	NewTraceID = telemetry.NewTraceID
)

// NewLogObserver returns a LogObserver writing to w; a nil w discards
// every span.
func NewLogObserver(w io.Writer) *LogObserver { return telemetry.NewLog(w) }

// TeeObservers fans every span out to all non-nil observers, in argument
// order, so logging, span recording and live progress compose. With no
// non-nil member it returns nil.
func TeeObservers(members ...Observer) Observer { return telemetry.Tee(members...) }

// Metrics returns a snapshot of the process-wide metrics registry
// (stencil-cache hits/misses, sibling-reuse counts, simplex pivots, MILP
// nodes, anneal acceptance, beam pruning).
func Metrics() MetricsSnapshot { return telemetry.Default.Snapshot() }

// ServeMetrics starts a live telemetry endpoint on addr serving a combined
// progress+metrics snapshot on /metrics (JSON, or Prometheus text by
// content negotiation). progress supplies the live view (typically
// ProgressTracker.Snapshot); nil serves metrics only. Close the returned
// server when done.
func ServeMetrics(addr string, progress func() Progress) (*MetricsServer, error) {
	return telemetry.Serve(addr, nil, progress)
}

// PhaseTimes converts pipeline PhaseStats into the per-phase rows of the
// telemetry report. The jobs columns count committed subproblems and
// merges (sibling-reuse copies included).
func PhaseTimes(s PhaseStats) []PhaseTime {
	return []PhaseTime{
		{Name: PhaseCluster, Wall: s.ClusterTime},
		{Name: PhaseMap, Wall: s.MapTime, Work: s.MapWorkTime, Jobs: s.Subproblems},
		{Name: PhaseMerge, Wall: s.MergeTime, Work: s.MergeWorkTime, Jobs: s.Merges},
	}
}

// WriteTelemetryReport prints the end-of-run report table: per-phase wall
// time, effective parallelism, cache hit rates and solver effort from the
// process-wide registry. A nil stats prints the counters-only form (no
// phase table), which is what trace-driven tools use.
func WriteTelemetryReport(w io.Writer, stats *PhaseStats) error {
	if stats == nil {
		return telemetry.WriteReport(w, 0, nil, telemetry.Default.Snapshot())
	}
	return telemetry.WriteReport(w, stats.Parallelism, PhaseTimes(*stats), telemetry.Default.Snapshot())
}
