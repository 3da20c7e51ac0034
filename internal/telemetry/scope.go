package telemetry

// Request-scoped telemetry: the one carrier of a solve's signals.
//
// The process-wide Default registry answers "what has this process done";
// once the daemon solves several requests concurrently it cannot answer
// "which request did it". A Scope is one request's private slice of the
// same metric space — a trace ID plus a throwaway Registry that the
// pipeline's batched flush sites route into (via CounterOr) — and the
// consumer of its spans: the pipeline emits every completed span through
// Scope.Span to the scope's Observer. The hot paths keep their batching —
// a scope adds one pointer test per flush site or span, never
// per-iteration work — so the <= 2% telemetry budget of DESIGN.md §8 holds
// with attribution enabled (see BenchmarkRequestScopedTelemetry).
//
// Scoped counts bypass the process-wide registry while the solve runs;
// rahtm.Solve folds the request's delta into Default at request end
// (Registry.Merge), so process totals are unchanged whether or not a scope
// is attached — each count lands exactly once. A scope without a registry
// only carries an observer: its counters stay on Default.

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"time"
)

// Scope is one solve's telemetry identity: a trace ID, a private registry
// collecting that solve's share of the pipeline counters, and the observer
// its spans go to. All methods are safe on a nil *Scope, so emitters and
// flush sites call them unconditionally.
type Scope struct {
	// TraceID identifies the request end to end; it is stamped on spans,
	// response headers and structured log lines.
	TraceID string
	// Reg is the request-local registry. Counters the pipeline tees here
	// are merged into Default when the solve finishes. Nil keeps the
	// counters on Default.
	Reg *Registry
	// Observer receives every completed span of the solve (nil = none).
	Observer Observer
}

// NewScope returns a scope with its own empty registry. An empty traceID
// gets a fresh random one.
func NewScope(traceID string) *Scope {
	if traceID == "" {
		traceID = NewTraceID()
	}
	return &Scope{TraceID: traceID, Reg: NewRegistry()}
}

// scopeKey is the context key carrying a *Scope.
type scopeKey struct{}

// WithScope returns a context carrying s; the pipeline's Ctx entry points
// pick it up with ScopeFrom. A nil scope returns ctx unchanged.
func WithScope(ctx context.Context, s *Scope) context.Context {
	if s == nil {
		return ctx
	}
	return context.WithValue(ctx, scopeKey{}, s)
}

// ScopeFrom returns the scope carried by ctx, or nil. Call it once per
// solve/merge/level — not in hot loops — and route flushes through the
// result's nil-safe methods.
func ScopeFrom(ctx context.Context) *Scope {
	if ctx == nil {
		return nil
	}
	s, _ := ctx.Value(scopeKey{}).(*Scope)
	return s
}

// TraceIDFrom returns the trace ID carried by ctx's scope, or "".
func TraceIDFrom(ctx context.Context) string {
	if s := ScopeFrom(ctx); s != nil {
		return s.TraceID
	}
	return ""
}

// Span stamps sp with the scope's trace ID and hands it to the scope's
// observer; a no-op when s or its observer is nil.
func (s *Scope) Span(sp Span, start time.Time) {
	if s == nil || s.Observer == nil {
		return
	}
	sp.TraceID = s.TraceID
	s.Observer.Record(sp, start)
}

// Counter returns the scope's counter for name, or nil when s has no
// registry.
func (s *Scope) Counter(name string) *Counter {
	if s == nil || s.Reg == nil {
		return nil
	}
	return s.Reg.Counter(name)
}

// CounterOr returns the scope's counter for name, or fallback when s has
// no registry. Batched flush sites call it once per flush to pick between
// the request-local registry and their process-wide handle.
func (s *Scope) CounterOr(name string, fallback *Counter) *Counter {
	if s == nil || s.Reg == nil {
		return fallback
	}
	return s.Reg.Counter(name)
}

// Snapshot returns the scope registry's snapshot (zero without one).
func (s *Scope) Snapshot() Snapshot {
	if s == nil || s.Reg == nil {
		return Snapshot{}
	}
	return s.Reg.Snapshot()
}

// NewTraceID returns a fresh 16-hex-character request identifier drawn from
// crypto/rand (the math/rand globals are banned repo-wide; see the
// globalrand analyzer).
func NewTraceID() string {
	var b [8]byte
	// crypto/rand.Read never fails on supported platforms (and panics
	// internally if the kernel source does); the error is unreachable.
	_, _ = rand.Read(b[:])
	return hex.EncodeToString(b[:])
}

// Merge folds a snapshot into the registry: counters add their values,
// gauges overwrite, histograms add bucket-wise (created with the
// snapshot's bounds on first use; snapshots whose bounds disagree with an
// existing histogram are dropped rather than corrupting buckets). It is
// how a request scope's delta lands in Default at request end.
func (r *Registry) Merge(s Snapshot) {
	for name, v := range s.Counters {
		if v != 0 {
			r.Counter(name).Add(v)
		}
	}
	for name, v := range s.Gauges {
		r.Gauge(name).Set(v)
	}
	for name, hs := range s.Histograms {
		if hs.Count == 0 {
			continue
		}
		r.Histogram(name, hs.Bounds).addSnapshot(hs)
	}
}

// addSnapshot adds a snapshot's samples into h when the bucket layouts
// match; mismatched bounds are dropped.
func (h *Histogram) addSnapshot(s HistogramSnapshot) {
	if len(s.Bounds) != len(h.bounds) || len(s.Buckets) != len(h.counts) {
		return
	}
	for i := range h.bounds {
		if h.bounds[i] != s.Bounds[i] { //rahtm:allow(floateq): bucket bounds are copied verbatim, identity comparison intended
			return
		}
	}
	for i, c := range s.Buckets {
		if c != 0 {
			h.counts[i].Add(c)
		}
	}
	h.sum.Add(s.Sum)
	h.n.Add(s.Count)
}
