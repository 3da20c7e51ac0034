// Package serve implements rahtm-serve: a long-running mapping-as-a-service
// daemon over the unified rahtm.Request/rahtm.Result API.
//
// Requests enter through POST /solve as JSON, pass admission control (a
// bounded queue; overflow is answered 429 with Retry-After), wait for one
// of a fixed pool of solver workers, and run under a per-request context
// deadline with the pipeline's cancel/degrade semantics: expired budgets
// return the best valid mapping found so far, flagged "degraded". Finished
// complete (non-degraded) results land in a content-addressed LRU keyed by
// the request's structural hash, so identical subproblems across requests
// hit the cache the way identical siblings do within a run.
//
// Every request is traced end to end: the handler draws a trace ID (or
// honors an incoming X-Rahtm-Trace-Id), attaches a request-local telemetry
// scope and span recorder to the solve context, and answers with the trace
// ID in the response header and body. The per-request counter deltas come
// back in Result.Metrics; GET /debug/requests exposes the in-flight set and
// a board of the slowest completed traces with their span timelines.
//
// The daemon also serves GET /healthz (liveness, build info, queue state)
// and mounts the existing telemetry endpoint (GET /metrics — JSON or
// Prometheus text by content negotiation) on the same mux; per-request
// counters (queue wait, cache hit/miss, degraded completions, rejections)
// land in the process-wide telemetry registry.
// Lifecycle events go to Config.Logger as structured logs.
package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"runtime/debug"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"rahtm"
	"rahtm/internal/sched"
	"rahtm/internal/telemetry"
)

// Per-request counters on the process-wide registry. Serving is not a hot
// loop — one update per request — so plain Adds are within the telemetry
// budget.
var (
	ctrRequests    = telemetry.Default.Counter(telemetry.CtrServeRequests)
	ctrCacheHits   = telemetry.Default.Counter(telemetry.CtrServeCacheHits)
	ctrCacheMisses = telemetry.Default.Counter(telemetry.CtrServeCacheMisses)
	ctrRejected    = telemetry.Default.Counter(telemetry.CtrServeRejected)
	ctrDegraded    = telemetry.Default.Counter(telemetry.CtrServeDegraded)
	ctrErrors      = telemetry.Default.Counter(telemetry.CtrServeErrors)
	histQueueWait  = telemetry.Default.Histogram(telemetry.HistServeQueueWait, telemetry.ServeLatencyBounds)
	histLatency    = telemetry.Default.Histogram(telemetry.HistServeLatency, telemetry.ServeLatencyBounds)

	gaugeQueueDepth = telemetry.Default.Gauge(telemetry.GaugeServeQueueDepth)
	gaugeInflight   = telemetry.Default.Gauge(telemetry.GaugeServeInflight)
)

// TraceHeader carries the request trace ID: honored when the client sends
// it on POST /solve, and always present on the response.
const TraceHeader = "X-Rahtm-Trace-Id"

// QueueHeader reports, on solved (non-cached) responses, how long the
// request waited for a worker, in milliseconds.
const QueueHeader = "X-Rahtm-Queue-Ms"

// Config tunes the daemon. The zero value serves with 2 solver workers, a
// 64-deep queue, and a 1024-entry result cache.
type Config struct {
	// Workers is the number of concurrent solves (0 = 2). Each solve may
	// itself fan out on the pipeline's worker pool; see MaxParallelism.
	Workers int
	// QueueDepth bounds how many admitted requests may wait for a worker
	// (0 = 64). Beyond Workers + QueueDepth, requests are rejected with
	// 429 and a Retry-After hint.
	QueueDepth int
	// CacheEntries bounds the content-addressed result cache (0 = 1024,
	// negative disables caching).
	CacheEntries int
	// MaxDeadline caps (and, when a request carries none, supplies) the
	// per-request solve budget. 0 leaves request deadlines as sent and
	// unbudgeted requests unbounded.
	MaxDeadline time.Duration
	// MaxParallelism caps the pipeline worker goroutines of each solve
	// (0 = leave requests as sent, where 0 means GOMAXPROCS). Daemons
	// running several workers set this to keep one request from
	// monopolizing the machine.
	MaxParallelism int
	// MaxBodyBytes bounds the request body (0 = 16 MiB).
	MaxBodyBytes int64
	// SlowTraces bounds the /debug/requests board of slowest completed
	// requests (0 = 32, negative disables retention).
	SlowTraces int
	// Logger receives the daemon's structured access and lifecycle logs.
	// Nil discards them; cmd/rahtm-serve passes a JSON handler.
	Logger *slog.Logger
}

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = 2
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 64
	}
	if c.CacheEntries == 0 {
		c.CacheEntries = 1024
	}
	if c.MaxBodyBytes <= 0 {
		c.MaxBodyBytes = 16 << 20
	}
	if c.SlowTraces == 0 {
		c.SlowTraces = 32
	}
	if c.Logger == nil {
		// slog has no stdlib discard handler until go1.24; an impossible
		// level on a TextHandler is the portable equivalent.
		c.Logger = slog.New(slog.NewTextHandler(io.Discard, &slog.HandlerOptions{Level: slog.Level(127)}))
	}
	return c
}

// job is one admitted request waiting for (or being solved by) a worker.
type job struct {
	req      rahtm.Request
	key      string
	ctx      context.Context // request-scoped (canceled when the client goes away)
	traceID  string
	scope    *telemetry.Scope    // request-local counter registry, observed by rec
	rec      *telemetry.Recorder // request-local span timeline
	enqueued time.Time
	queueMS  float64       // set by the worker when the job is picked up
	done     chan struct{} // closed by the worker when res/err are set
	res      *rahtm.Result
	err      error
}

// Server is the daemon: handler stack, solve queue, worker pool and result
// cache. Construct with New, expose Handler on an http.Server, and stop
// with Shutdown.
type Server struct {
	cfg     Config
	mux     *http.ServeMux
	cache   *cache
	log     *slog.Logger
	tracker *tracker
	started time.Time

	queue    chan *job
	workers  sync.WaitGroup
	inflight atomic.Int64

	mu     sync.Mutex // guards closed and the queue close
	closed bool

	baseCtx    context.Context // hard-stop signal for in-flight solves
	baseCancel context.CancelFunc
}

// New builds a Server and starts its worker pool. ctx is the hard-stop
// parent of every solve: canceling it aborts in-flight work outright
// (Shutdown does this itself after its drain grace expires, so daemons
// normally pass a background context and rely on Shutdown).
func New(ctx context.Context, cfg Config) *Server {
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:     cfg,
		mux:     http.NewServeMux(),
		cache:   newCache(cfg.CacheEntries),
		log:     cfg.Logger,
		tracker: newTracker(cfg.SlowTraces),
		started: time.Now(),
		queue:   make(chan *job, cfg.QueueDepth),
	}
	s.baseCtx, s.baseCancel = context.WithCancel(ctx)
	s.mux.HandleFunc("/solve", s.handleSolve)
	s.mux.HandleFunc("/healthz", s.handleHealthz)
	s.mux.HandleFunc("/debug/requests", s.handleDebugRequests)
	telemetry.Mount(s.mux, nil, nil)
	s.workers.Add(cfg.Workers)
	for i := 0; i < cfg.Workers; i++ {
		go s.worker()
	}
	return s
}

// Handler returns the daemon's HTTP handler (POST /solve, GET /healthz,
// GET /metrics, GET /debug/requests).
func (s *Server) Handler() http.Handler { return s.mux }

// CacheLen returns the number of cached results.
func (s *Server) CacheLen() int { return s.cache.len() }

// Shutdown drains the daemon gracefully: admission stops immediately (new
// requests get 503), queued and in-flight solves run to completion, and
// their handlers deliver responses. When ctx expires before the drain
// finishes, the remaining solves are hard-canceled and awaited; the
// corresponding requests fail with 503. Safe to call more than once.
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	if !s.closed {
		s.closed = true
		close(s.queue)
	}
	s.mu.Unlock()
	drained := make(chan struct{})
	go func() {
		s.workers.Wait()
		close(drained)
	}()
	select {
	case <-drained:
		return nil
	case <-ctx.Done():
		s.baseCancel()
		<-drained
		return ctx.Err()
	}
}

// admit enqueues a job unless the daemon is draining (ok=false,
// accepting=false) or the queue is full (ok=false, accepting=true).
func (s *Server) admit(j *job) (ok, accepting bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return false, false
	}
	select {
	case s.queue <- j:
		return true, true
	default:
		return false, true
	}
}

// worker pulls admitted jobs until the queue closes on drain.
func (s *Server) worker() {
	defer s.workers.Done()
	for j := range s.queue {
		gaugeInflight.Set(float64(s.inflight.Add(1)))
		gaugeQueueDepth.Set(float64(len(s.queue)))
		j.queueMS = float64(time.Since(j.enqueued)) / float64(time.Millisecond)
		histQueueWait.Observe(j.queueMS)
		s.tracker.solving(j.traceID, j.queueMS)
		if j.ctx.Err() != nil {
			// The client went away while the job was queued; don't
			// burn a solve on an answer nobody reads.
			j.err = j.ctx.Err()
		} else {
			j.res, j.err = s.solve(j)
		}
		s.finishTrace(j)
		close(j.done)
		gaugeInflight.Set(float64(s.inflight.Add(-1)))
	}
}

// finishTrace retires a job's tracker entry and emits its solve log line.
// It runs on the worker so the trace completes even when the requesting
// client disconnected while the job was queued or solving.
func (s *Server) finishTrace(j *job) {
	status := "ok"
	var errMsg string
	switch {
	case j.err != nil:
		status, errMsg = "error", j.err.Error()
	case j.res.Degraded:
		status = "degraded"
	}
	var wallMS float64
	s.tracker.finish(j.traceID, func(e *traceEntry) {
		e.Status = status
		e.Error = errMsg
		e.WallMS = float64(time.Since(e.Start)) / float64(time.Millisecond)
		if j.res != nil {
			e.Metrics = j.res.Metrics
		}
		e.Spans = trimSpans(j.rec.Spans())
		wallMS = e.WallMS
	})
	s.log.Info("solve",
		"trace", j.traceID,
		"workload", workloadName(&j.req),
		"mapper", mapperName(&j.req),
		"status", status,
		"cached", false,
		"err", errMsg,
		"queue_ms", j.queueMS,
		"wall_ms", wallMS,
		"queue_depth", len(s.queue))
}

// errSolvePanic marks a solve that panicked. The worker recovers it, so
// one bad solve costs its own request a 500, not the daemon.
var errSolvePanic = errors.New("solve panicked")

// solve runs one job under the merged request/daemon lifetime, with the
// job's telemetry scope on the context so the solver layers attribute
// their counters to this request. A panic on the worker's goroutine (in a
// registered mapper, say), or one the pipeline re-raised there from its
// own workers (a *sched.Panic), becomes an error wrapping errSolvePanic
// with the panic's value, and its stack goes to the log; net/http recovers
// only its own handler goroutines, so without this one panicking solve
// would end the process.
func (s *Server) solve(j *job) (res *rahtm.Result, err error) {
	defer func() {
		if p := recover(); p != nil {
			stack := debug.Stack()
			if wp, ok := p.(*sched.Panic); ok {
				p, stack = wp.Value, wp.Stack
			}
			ctrErrors.Inc()
			s.log.Error("solve panic", "trace", j.traceID, "panic", fmt.Sprint(p), "stack", string(stack))
			res, err = nil, fmt.Errorf("%w: %v", errSolvePanic, p)
		}
	}()
	jctx, cancel := context.WithCancel(j.ctx)
	defer cancel()
	stop := context.AfterFunc(s.baseCtx, cancel)
	defer stop()
	jctx = telemetry.WithScope(jctx, j.scope)
	res, err = rahtm.Solve(jctx, j.req)
	if err != nil {
		ctrErrors.Inc()
		return nil, err
	}
	res.CacheKey = j.key
	if res.Degraded {
		// A degraded mapping is valid but deadline-shaped; caching it
		// would serve truncated searches to requests with roomier
		// budgets. Count it and let it through uncached.
		ctrDegraded.Inc()
	} else {
		s.cache.put(j.key, res)
	}
	return res, nil
}

// workloadName and mapperName normalize request fields for logs and traces.
func workloadName(r *rahtm.Request) string {
	if r.Workload == "" && r.Graph != "" {
		return "inline"
	}
	return r.Workload
}

func mapperName(r *rahtm.Request) string {
	if r.Mapper == "" {
		return "rahtm"
	}
	return r.Mapper
}

// clampRequest applies the daemon's resource ceilings to a wire request.
// Parallelism follows sched.Workers: an unset (0) request gets the cap, and
// a negative one keeps its meaning, one worker.
func (s *Server) clampRequest(req *rahtm.Request) {
	if max := s.cfg.MaxDeadline; max > 0 {
		maxMS := int64(max / time.Millisecond)
		if req.DeadlineMS <= 0 || req.DeadlineMS > maxMS {
			req.DeadlineMS = maxMS
		}
	}
	if max := s.cfg.MaxParallelism; max > 0 {
		if req.Parallelism == 0 || req.Parallelism > max {
			req.Parallelism = max
		}
	}
}

func (s *Server) handleSolve(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	traceID := r.Header.Get(TraceHeader)
	if traceID == "" {
		traceID = telemetry.NewTraceID()
	}
	// Every answer — success, rejection, or error — carries the trace ID,
	// so clients can always quote it when reporting a problem.
	w.Header().Set(TraceHeader, traceID)
	if r.Method != http.MethodPost {
		httpError(w, http.StatusMethodNotAllowed, "POST a rahtm.Request JSON to /solve")
		return
	}
	ctrRequests.Inc()
	deny := func(code int, format string, args ...any) {
		msg := fmt.Sprintf(format, args...)
		s.log.Info("solve", "trace", traceID, "status", "denied", "code", code, "err", msg)
		httpError(w, code, "%s", msg)
	}
	var req rahtm.Request
	body := http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes)
	if err := json.NewDecoder(body).Decode(&req); err != nil {
		deny(http.StatusBadRequest, "decoding request: %v", err)
		return
	}
	// Materialize checks every size the request names before it builds
	// anything; a size beyond the package bounds is a 413.
	if _, _, err := req.Materialize(); err != nil {
		code := http.StatusBadRequest
		if errors.Is(err, rahtm.ErrRequestTooLarge) {
			code = http.StatusRequestEntityTooLarge
		}
		deny(code, "%v", err)
		return
	}
	if name := req.Mapper; name != "" {
		// Resolve the mapper eagerly so an unknown name is a cheap 400
		// (typed rahtm.ErrUnknownMapper) instead of a consumed queue slot.
		if _, err := rahtm.MapperByName(name); err != nil {
			deny(http.StatusBadRequest, "%v", err)
			return
		}
	}
	s.clampRequest(&req)
	key, err := req.Key()
	if err != nil {
		deny(http.StatusBadRequest, "%v", err)
		return
	}

	if res, ok := s.cache.get(key); ok {
		ctrCacheHits.Inc()
		res.Cached = true
		res.TraceID = traceID
		wallMS := float64(time.Since(start)) / float64(time.Millisecond)
		s.tracker.record(&traceEntry{
			TraceID: traceID, Workload: workloadName(&req), Mapper: mapperName(&req),
			Start: start, WallMS: wallMS, Status: "ok", Cached: true,
		})
		s.log.Info("solve", "trace", traceID, "workload", workloadName(&req),
			"mapper", mapperName(&req), "status", "ok", "cached", true,
			"wall_ms", wallMS, "queue_depth", len(s.queue))
		writeResult(w, res, start)
		return
	}
	ctrCacheMisses.Inc()

	rec := telemetry.NewRecorder()
	scope := telemetry.NewScope(traceID)
	scope.Observer = rec
	j := &job{
		req: req, key: key, ctx: r.Context(),
		traceID: traceID, scope: scope, rec: rec,
		enqueued: time.Now(), done: make(chan struct{}),
	}
	s.tracker.start(&traceEntry{
		TraceID: traceID, Workload: workloadName(&req), Mapper: mapperName(&req),
		Start: start, Status: "queued",
	})
	ok, accepting := s.admit(j)
	if !accepting {
		s.tracker.drop(traceID)
		deny(http.StatusServiceUnavailable, "draining: the daemon is shutting down")
		return
	}
	if !ok {
		s.tracker.drop(traceID)
		ctrRejected.Inc()
		w.Header().Set("Retry-After", strconv.Itoa(s.retryAfterSeconds()))
		deny(http.StatusTooManyRequests,
			"queue full (%d waiting, %d solving): retry later", s.cfg.QueueDepth, s.cfg.Workers)
		return
	}
	gaugeQueueDepth.Set(float64(len(s.queue)))

	select {
	case <-j.done:
	case <-r.Context().Done():
		// The client is gone; the worker notices through j.ctx and the
		// response writer is dead anyway (it still retires the trace).
		return
	}
	if j.err != nil {
		switch {
		case errors.Is(j.err, context.Canceled):
			httpError(w, http.StatusServiceUnavailable, "solve canceled: %v", j.err)
		case errors.Is(j.err, errSolvePanic):
			httpError(w, http.StatusInternalServerError, "solve failed: %v", j.err)
		default:
			httpError(w, http.StatusBadRequest, "solve failed: %v", j.err)
		}
		return
	}
	w.Header().Set(QueueHeader, strconv.FormatFloat(j.queueMS, 'f', 3, 64))
	writeResult(w, j.res, start)
}

// retryAfterSeconds estimates when a rejected client should try again: the
// mean observed solve latency times the queue it would sit behind, clamped
// to [1, 60] seconds.
func (s *Server) retryAfterSeconds() int {
	return retryAfterHint(histLatency.Count(), histLatency.Sum(), s.cfg.QueueDepth, s.cfg.Workers)
}

// retryAfterHint computes the Retry-After estimate from n observed solves
// summing sumMS milliseconds of latency. The hint is always at least one
// second — a Retry-After of 0 invites an immediate retry storm against a
// full queue — and at most 60 so one pathological solve cannot park
// clients for minutes.
func retryAfterHint(n int64, sumMS float64, queueDepth, workers int) int {
	if n == 0 {
		return 1
	}
	meanMS := sumMS / float64(n)
	secs := int(meanMS*float64(queueDepth)/float64(workers)) / 1000
	if secs < 1 {
		return 1
	}
	if secs > 60 {
		return 60
	}
	return secs
}

// buildInfo extracts version identity from the binary once: the Go
// toolchain, the main module version, and the VCS revision when the binary
// was built from a checkout.
var buildInfo = sync.OnceValue(func() map[string]string {
	out := map[string]string{}
	bi, ok := debug.ReadBuildInfo()
	if !ok {
		return out
	}
	out["go"] = bi.GoVersion
	if v := bi.Main.Version; v != "" && v != "(devel)" {
		out["version"] = v
	}
	for _, kv := range bi.Settings {
		switch kv.Key {
		case "vcs.revision":
			out["revision"] = kv.Value
		case "vcs.modified":
			out["dirty"] = kv.Value
		}
	}
	return out
})

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	draining := s.closed
	s.mu.Unlock()
	status := "ok"
	code := http.StatusOK
	if draining {
		status = "draining"
		code = http.StatusServiceUnavailable
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(map[string]any{
		"status":    status,
		"build":     buildInfo(),
		"uptime_s":  time.Since(s.started).Seconds(),
		"queue":     len(s.queue),
		"queue_cap": s.cfg.QueueDepth,
		"inflight":  s.inflight.Load(),
		"workers":   s.cfg.Workers,
		"cached":    s.cache.len(),
	})
}

// writeResult delivers a Result and records the request latency.
func writeResult(w http.ResponseWriter, res *rahtm.Result, start time.Time) {
	histLatency.Observe(float64(time.Since(start)) / float64(time.Millisecond))
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(res)
}

// httpError answers with a JSON error body.
func httpError(w http.ResponseWriter, code int, format string, args ...any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(map[string]string{"error": fmt.Sprintf(format, args...)})
}
