// Package telemetry is the observability layer of the RAHTM pipeline: a
// concurrency-safe metrics registry (counters, gauges, fixed-bucket
// histograms), the request Scope that carries a solve's counters and spans,
// span observers (a recorder exporting worker timelines as JSONL and Chrome
// trace-event files, a live-progress tracker, a line log), a live /metrics
// HTTP endpoint (JSON or Prometheus text), and an end-of-run report table.
//
// The package sits below every pipeline layer (it depends only on the
// standard library), so the hot paths — the routing stencil cache, the
// level-wise scheduler, the LP/MILP solvers, annealing and the beam merger
// — instrument themselves against the process-wide Default registry.
// Instrumentation is always on; its budget is <= 2% of pipeline wall time
// (see BenchmarkPipelineTelemetry and DESIGN.md §8), achieved by batching
// hot-loop counts in plain locals — per solver call, per worker, or per
// routing evaluator — and flushing them once.
package telemetry

import (
	"math"
	"sort"
	"sync"
	"sync/atomic"
)

// Well-known metric names. Instrumented packages register these against the
// Default registry; the report table and the bench JSON reader look them up
// by the same constants.
const (
	// graph: communication-graph construction.
	CtrGraphBuild = "graph.build" // Comm instances created (built, read or derived)

	// routing: displacement-stencil cache of the minimal-adaptive evaluator.
	CtrStencilHits      = "routing.stencil.hits"
	CtrStencilMisses    = "routing.stencil.misses"
	CtrStencilBuilds    = "routing.stencil.builds"
	CtrStencilEvictions = "routing.stencil.evictions"

	// core: level-wise scheduler sibling-reuse caches.
	CtrSubproblems    = "core.subproblems"
	CtrSubproblemHits = "core.subproblems.reused"
	CtrMerges         = "core.merges"
	CtrMergeHits      = "core.merges.reused"

	// lp / milp: solver effort.
	CtrLPSolves   = "lp.solves"
	CtrLPPivots   = "lp.pivots"
	CtrMILPSolves = "milp.solves"
	CtrMILPNodes  = "milp.nodes"

	// hiermap: simulated annealing acceptance.
	CtrAnnealMoves    = "anneal.moves"
	CtrAnnealAccepted = "anneal.accepted"
	CtrAnnealRestarts = "anneal.restarts"

	// merge: Phase 3 beam search.
	CtrBeamCandidates = "merge.beam.candidates"
	CtrBeamKept       = "merge.beam.kept"
	CtrSymmetryEvals  = "merge.symmetry.evals"
	CtrBeamBoundSkips = "merge.beam.bound_skips" // combos the running bound rejected before a full score
	// CtrBeamScreenSkips counts the bound skips the channel-subset
	// prescreen made: combos rejected on their peak over a few learned
	// channels, before any full score (a subset of bound_skips).
	CtrBeamScreenSkips = "merge.beam.screen_skips"

	// trace: communication-profile ingestion.
	CtrTraceP2P   = "trace.p2p.records"
	CtrTraceColls = "trace.collectives.expanded"

	// serve: the mapping-as-a-service daemon (internal/serve).
	CtrServeRequests     = "serve.requests"
	CtrServeCacheHits    = "serve.cache.hits"
	CtrServeCacheMisses  = "serve.cache.misses"
	CtrServeRejected     = "serve.rejected" // admission-control 429s
	CtrServeDegraded     = "serve.degraded" // deadline-degraded completions
	CtrServeErrors       = "serve.errors"   // failed solves
	HistServeQueueWait   = "serve.queue.wait_ms"
	HistServeLatency     = "serve.latency_ms"
	GaugeServeQueueDepth = "serve.queue.depth"
	GaugeServeInflight   = "serve.inflight"
)

// ServeLatencyBounds are the millisecond bucket bounds of the daemon's
// queue-wait and request-latency histograms.
var ServeLatencyBounds = []float64{1, 2, 5, 10, 25, 50, 100, 250, 500, 1000, 2500, 5000, 10000, 30000}

// Counter is a monotonic (or at least sum-semantics) int64 metric. The
// zero value is ready to use. Hot loops accumulate into a plain local and
// add it once at loop exit (see the telemetrybatch analyzer).
type Counter struct {
	n atomic.Int64
}

// Add adds delta.
func (c *Counter) Add(delta int64) { c.n.Add(delta) }

// Inc adds one.
func (c *Counter) Inc() { c.n.Add(1) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.n.Load() }

// Gauge is a float64 metric that holds the latest set value (worker counts,
// temperatures, best-so-far objectives). The zero value is ready to use.
type Gauge struct {
	bits atomic.Uint64
}

// Set stores v.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Add adds delta to the stored value (compare-and-swap loop).
func (g *Gauge) Add(delta float64) {
	for {
		old := g.bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + delta)
		if g.bits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Value returns the stored value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// Histogram is a fixed-bucket distribution metric. Bounds are the ascending
// upper bounds of the first len(bounds) buckets; one final bucket catches
// everything above the last bound. Observe is safe for concurrent use.
type Histogram struct {
	bounds []float64
	counts []atomic.Int64
	sum    Gauge
	n      atomic.Int64
}

// NewHistogram builds a histogram with the given ascending bucket upper
// bounds (at least one).
func NewHistogram(bounds []float64) *Histogram {
	if len(bounds) == 0 {
		bounds = []float64{math.Inf(1)}
	}
	if !sort.Float64sAreSorted(bounds) {
		panic("telemetry: histogram bounds must ascend")
	}
	return &Histogram{
		bounds: append([]float64(nil), bounds...),
		counts: make([]atomic.Int64, len(bounds)+1),
	}
}

// Observe records one sample.
func (h *Histogram) Observe(v float64) {
	i := sort.SearchFloat64s(h.bounds, v)
	h.counts[i].Add(1)
	h.sum.Add(v)
	h.n.Add(1)
}

// Count returns the number of samples observed.
func (h *Histogram) Count() int64 { return h.n.Load() }

// Sum returns the sum of all observed samples.
func (h *Histogram) Sum() float64 { return h.sum.Value() }

// snapshot captures the histogram state.
func (h *Histogram) snapshot() HistogramSnapshot {
	s := HistogramSnapshot{
		Count:   h.n.Load(),
		Sum:     h.sum.Value(),
		Bounds:  append([]float64(nil), h.bounds...),
		Buckets: make([]int64, len(h.counts)),
	}
	for i := range h.counts {
		s.Buckets[i] = h.counts[i].Load()
	}
	return s
}

// HistogramSnapshot is the point-in-time view of one histogram.
// Buckets[i] counts samples <= Bounds[i]; the final bucket counts the rest.
type HistogramSnapshot struct {
	Count   int64     `json:"count"`
	Sum     float64   `json:"sum"`
	Bounds  []float64 `json:"bounds"`
	Buckets []int64   `json:"buckets"`
}

// Registry is a concurrency-safe, get-or-create collection of named
// metrics. The zero value is not usable; construct with NewRegistry or use
// the process-wide Default.
type Registry struct {
	mu       sync.RWMutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
}

// Default is the process-wide registry every built-in instrumentation point
// reports to.
var Default = NewRegistry()

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: map[string]*Counter{},
		gauges:   map[string]*Gauge{},
		hists:    map[string]*Histogram{},
	}
}

// Counter returns the counter registered under name, creating it on first
// use. The same name always yields the same *Counter.
func (r *Registry) Counter(name string) *Counter {
	r.mu.RLock()
	c := r.counters[name]
	r.mu.RUnlock()
	if c != nil {
		return c
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if c = r.counters[name]; c == nil {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the gauge registered under name, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	r.mu.RLock()
	g := r.gauges[name]
	r.mu.RUnlock()
	if g != nil {
		return g
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if g = r.gauges[name]; g == nil {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the histogram registered under name, creating it with
// the given bounds on first use. An existing histogram keeps its original
// bounds (first registration wins).
func (r *Registry) Histogram(name string, bounds []float64) *Histogram {
	r.mu.RLock()
	h := r.hists[name]
	r.mu.RUnlock()
	if h != nil {
		return h
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if h = r.hists[name]; h == nil {
		h = NewHistogram(bounds)
		r.hists[name] = h
	}
	return h
}

// Snapshot returns a consistent-enough point-in-time view of every metric.
// Counters that have never been touched report their zero value; names the
// registry has never seen are absent.
func (r *Registry) Snapshot() Snapshot {
	r.mu.RLock()
	defer r.mu.RUnlock()
	s := Snapshot{
		Counters:   make(map[string]int64, len(r.counters)),
		Gauges:     make(map[string]float64, len(r.gauges)),
		Histograms: make(map[string]HistogramSnapshot, len(r.hists)),
	}
	for name, c := range r.counters {
		s.Counters[name] = c.Value()
	}
	for name, g := range r.gauges {
		s.Gauges[name] = g.Value()
	}
	for name, h := range r.hists {
		s.Histograms[name] = h.snapshot()
	}
	return s
}

// Snapshot is the point-in-time view of a Registry, JSON-encodable as-is.
type Snapshot struct {
	Counters   map[string]int64             `json:"counters"`
	Gauges     map[string]float64           `json:"gauges"`
	Histograms map[string]HistogramSnapshot `json:"histograms,omitempty"`
}

// Counter returns the snapshotted value of a counter, zero when absent.
func (s Snapshot) Counter(name string) int64 { return s.Counters[name] }

// Sub returns a snapshot whose counters are the difference s - prev
// (gauges and histograms keep s's values): the per-run delta of cumulative
// process-wide counters. Counters present only in prev appear as negative
// deltas rather than vanishing, and the gauge/histogram maps are copied, so
// mutating the result never reaches back into s.
func (s Snapshot) Sub(prev Snapshot) Snapshot {
	out := Snapshot{
		Counters:   make(map[string]int64, len(s.Counters)),
		Gauges:     make(map[string]float64, len(s.Gauges)),
		Histograms: make(map[string]HistogramSnapshot, len(s.Histograms)),
	}
	for name, v := range s.Counters {
		out.Counters[name] = v - prev.Counters[name]
	}
	for name, v := range prev.Counters {
		if _, ok := s.Counters[name]; !ok {
			out.Counters[name] = -v
		}
	}
	for name, v := range s.Gauges {
		out.Gauges[name] = v
	}
	for name, h := range s.Histograms {
		h.Bounds = append([]float64(nil), h.Bounds...)
		h.Buckets = append([]int64(nil), h.Buckets...)
		out.Histograms[name] = h
	}
	return out
}

// Sanitized returns a copy of s with non-finite gauge values and histogram
// sums replaced by zero. encoding/json refuses NaN and the infinities
// outright, so every snapshot that lands in a JSON payload (the /metrics
// endpoint, bench reports) passes through here first.
func (s Snapshot) Sanitized() Snapshot {
	out := Snapshot{
		Counters:   s.Counters,
		Gauges:     make(map[string]float64, len(s.Gauges)),
		Histograms: make(map[string]HistogramSnapshot, len(s.Histograms)),
	}
	for name, v := range s.Gauges {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
		}
		out.Gauges[name] = v
	}
	for name, h := range s.Histograms {
		if math.IsNaN(h.Sum) || math.IsInf(h.Sum, 0) {
			h.Sum = 0
		}
		out.Histograms[name] = h
	}
	return out
}

// Rate returns hit/(hit+miss) as a fraction in [0,1], or NaN when the
// denominator is zero.
func Rate(hit, miss int64) float64 {
	if hit+miss == 0 {
		return math.NaN()
	}
	return float64(hit) / float64(hit+miss)
}
