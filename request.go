package rahtm

// The unified Request/Result API: a serializable description of one mapping
// problem, a serializable answer, and a single Solve entry point that
// library callers, the CLIs and the rahtm-serve daemon (internal/serve) all
// go through; see DESIGN.md §10.

import (
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"regexp"
	"sort"
	"strings"
	"sync"
	"time"

	"rahtm/internal/core"
	"rahtm/internal/graph"
	"rahtm/internal/mappers"
	"rahtm/internal/metrics"
	"rahtm/internal/routing"
	"rahtm/internal/telemetry"
	"rahtm/internal/topology"
)

// Request describes one mapping problem. The JSON form is the wire format
// of the rahtm-serve daemon; the non-serialized fields are escape hatches
// for library callers that already hold the objects the serialized fields
// describe.
//
// The communication graph comes from exactly one of Workload (a named
// generator: BT, SP, CG, halo2d, halo3d, random), Graph (an inline graph in
// the plain "comm N / src dst vol" text format of ReadGraph), or the
// non-serialized Work field.
type Request struct {
	// Workload names a built-in benchmark generator: BT, SP, CG, halo2d,
	// halo3d, or random. halo2d/halo3d derive their shape from Grid.
	Workload string `json:"workload,omitempty"`
	// Graph is an inline communication graph in the ReadGraph text format,
	// used instead of Workload for application-specific traffic.
	Graph string `json:"graph,omitempty"`
	// Procs is the process count for named workloads (0 = nodes x conc).
	Procs int `json:"procs,omitempty"`
	// Grid is the logical process grid (row-major) for the tiling
	// clusterer and the halo generators.
	Grid []int `json:"grid,omitempty"`

	// Topo is the torus dimension list, e.g. [4,4,4].
	Topo []int `json:"topo,omitempty"`
	// Mesh selects an unwrapped mesh instead of a torus.
	Mesh bool `json:"mesh,omitempty"`
	// Conc is the number of processes per node (0 = 1).
	Conc int `json:"conc,omitempty"`

	// Mapper selects the mapping algorithm by registry name (see
	// MapperByName); empty means "rahtm".
	Mapper string `json:"mapper,omitempty"`
	// DeadlineMS is the solve time budget in milliseconds (0 = none). On
	// expiry RAHTM degrades to its best-so-far valid mapping and the
	// Result is flagged Degraded rather than failing.
	DeadlineMS int64 `json:"deadline_ms,omitempty"`
	// Parallelism bounds the scheduler worker goroutines (0 = GOMAXPROCS).
	// Results are identical for every setting.
	Parallelism int `json:"parallelism,omitempty"`
	// BeamWidth overrides the Phase 3 beam width (0 = paper default 64).
	// Only meaningful for the rahtm mapper.
	BeamWidth int `json:"beam_width,omitempty"`

	// Work supplies the workload directly, overriding Workload/Graph/
	// Procs/Grid. Library-side only; not serialized.
	Work *Workload `json:"-"`
	// Torus supplies the exact topology (including mixed per-dimension
	// wrap flags), overriding Topo/Mesh. Library-side only; not
	// serialized.
	Torus *Torus `json:"-"`
	// Config supplies a fully configured RAHTM pipeline, overriding
	// Mapper/Parallelism/BeamWidth. Library-side only; not serialized.
	Config *Mapper `json:"-"`
	// Observer receives the solve's spans. Solve moves it onto the scope of
	// the solve context (a copy of the caller's scope, or an observer-only
	// scope when there is none), so it sees exactly the spans a scope
	// observer would; alone it moves no counter and leaves Result.TraceID
	// and Result.Metrics empty. Library-side only; not serialized.
	Observer Observer `json:"-"`

	// Materialization memo (see Materialize).
	work  *Workload
	torus *Torus
}

// Result is the answer to a Request. The JSON form is what the rahtm-serve
// daemon returns; Detail additionally carries the full pipeline output for
// library callers.
type Result struct {
	// Mapping assigns each process rank to a topology node rank.
	Mapping Mapping `json:"mapping"`
	// Mapper is the name of the mapper that produced the mapping.
	Mapper string `json:"mapper"`
	// Workload echoes the workload name.
	Workload string `json:"workload,omitempty"`
	// Topology renders the topology, e.g. "torus(4x4x4)".
	Topology string `json:"topology,omitempty"`
	// MCL is the maximum channel load of the mapping under the
	// minimal-adaptive routing approximation.
	MCL float64 `json:"mcl"`
	// HopBytes is the routing-oblivious hop-bytes metric.
	HopBytes float64 `json:"hop_bytes"`
	// Degraded is set when the deadline expired mid-solve and the mapping
	// is the best found so far rather than the full search result.
	Degraded bool `json:"degraded"`
	// Stats is the RAHTM pipeline phase breakdown (nil for baselines).
	Stats *PhaseStats `json:"stats,omitempty"`
	// WallMS is the solve wall time in milliseconds.
	WallMS float64 `json:"wall_ms"`
	// CacheKey is the content-addressed key of the request; set by the
	// serving layer.
	CacheKey string `json:"cache_key,omitempty"`
	// Cached is set by the serving layer when the result came from the
	// content-addressed cache rather than a fresh solve.
	Cached bool `json:"cached,omitempty"`
	// TraceID identifies the solve that produced this result. Filled when
	// the context carried a telemetry scope (the rahtm-serve daemon attaches
	// one per request; library callers can via WithScope).
	TraceID string `json:"trace_id,omitempty"`
	// Metrics holds this request's own counter deltas (stencil cache hits,
	// simplex pivots, MILP nodes, beam candidates, ...) — the per-request
	// slice of what the process-wide Metrics() registry accumulates. Only
	// filled when the context carried a telemetry scope.
	Metrics map[string]int64 `json:"metrics,omitempty"`

	// Detail is the full RAHTM pipeline output (node-level mapping,
	// ProcTask, phase stats); nil for baseline mappers. Not serialized.
	Detail *PipelineResult `json:"-"`
}

// ErrUnknownMapper is wrapped by MapperByName for names the registry does
// not know (and that are not permutation specs).
var ErrUnknownMapper = errors.New("unknown mapper")

// ErrRequestTooLarge is wrapped by Materialize (and so by Key and Solve)
// for a request whose serialized fields name more than 2^20 processes or
// 32 topology dimensions. rahtm-serve answers it with 413.
var ErrRequestTooLarge = errors.New("request too large")

const (
	// maxProcs bounds every size a serialized request names: nodes x
	// conc, an explicit procs, the grid product and an inline graph's
	// vertex count. It is 16x the 64k scale rung.
	maxProcs = 1 << 20
	// maxTopoDims bounds the topology's dimension count.
	maxTopoDims = 32
)

// MapperFactory builds a ProcMapper for a concrete topology. Factories take
// the topology because some mappers (the machine default, permutation
// baselines) depend on its dimensionality.
type MapperFactory func(t *Torus) ProcMapper

var mapperRegistry = struct {
	sync.RWMutex
	m map[string]MapperFactory
}{m: map[string]MapperFactory{
	"rahtm":     func(*Torus) ProcMapper { return Mapper{} },
	"default":   func(t *Torus) ProcMapper { return mappers.Default(t) },
	"hilbert":   func(*Torus) ProcMapper { return mappers.Hilbert{} },
	"rht":       func(*Torus) ProcMapper { return mappers.RHT{} },
	"greedy":    func(*Torus) ProcMapper { return mappers.GreedyHopBytes{} },
	"random":    func(*Torus) ProcMapper { return mappers.Random{Seed: 1} },
	"bisection": func(*Torus) ProcMapper { return mappers.RecursiveBisection{} },
}}

// permSpecRe matches BG/Q-style dimension-permutation specs such as
// "ABCDET": only letters, at least two of them.
var permSpecRe = regexp.MustCompile(`^[A-Z]{2,}$`)

// RegisterMapper adds (or replaces) a mapper factory under a
// case-insensitive name, making it selectable by Request.Mapper and the
// CLI -mapper flags.
func RegisterMapper(name string, f MapperFactory) {
	if name == "" || f == nil {
		panic("rahtm: RegisterMapper needs a name and a factory")
	}
	mapperRegistry.Lock()
	defer mapperRegistry.Unlock()
	mapperRegistry.m[strings.ToLower(name)] = f
}

// MapperByName resolves a mapper name — a registry entry (rahtm, default,
// hilbert, rht, greedy, random, bisection, plus anything added through
// RegisterMapper) or a dimension-permutation spec such as "ABCDET" — to a
// factory. Unknown names return an error wrapping ErrUnknownMapper.
func MapperByName(name string) (MapperFactory, error) {
	key := strings.ToLower(strings.TrimSpace(name))
	mapperRegistry.RLock()
	f := mapperRegistry.m[key]
	mapperRegistry.RUnlock()
	if f != nil {
		return f, nil
	}
	if spec := strings.ToUpper(key); permSpecRe.MatchString(spec) {
		return func(*Torus) ProcMapper { return mappers.Permutation{Spec: spec} }, nil
	}
	return nil, fmt.Errorf("rahtm: %w %q (have %s, or a permutation spec like ABCDET)",
		ErrUnknownMapper, name, strings.Join(MapperNames(), ", "))
}

// MapperNames returns the sorted registry names (permutation specs are not
// enumerable and therefore not listed).
func MapperNames() []string {
	mapperRegistry.RLock()
	defer mapperRegistry.RUnlock()
	names := make([]string, 0, len(mapperRegistry.m))
	for name := range mapperRegistry.m {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// concOf returns the effective concentration factor.
func (r *Request) concOf() int {
	if r.Conc <= 0 {
		return 1
	}
	return r.Conc
}

// Materialize resolves the request into its workload and topology, building
// them from the serialized fields when the direct Work/Torus fields are
// unset. Every size those fields name is checked first (checkSizes), so a
// request is rejected before anything is built. The result is memoized, so
// the serving layer can validate and key a request without paying for a
// second parse inside Solve.
func (r *Request) Materialize() (*Workload, *Torus, error) {
	if r.work != nil && r.torus != nil {
		return r.work, r.torus, nil
	}
	if err := r.checkSizes(); err != nil {
		return nil, nil, err
	}
	t := r.Torus
	if t == nil {
		if r.Mesh {
			t = topology.NewMesh(r.Topo...)
		} else {
			t = topology.NewTorus(r.Topo...)
		}
	}
	w := r.Work
	if w == nil {
		var err error
		w, err = r.buildWorkload(t)
		if err != nil {
			return nil, nil, err
		}
	}
	if w.Procs() != t.N()*r.concOf() {
		return nil, nil, fmt.Errorf("rahtm: %d processes != %d nodes x %d concentration",
			w.Procs(), t.N(), r.concOf())
	}
	r.work, r.torus = w, t
	return w, t, nil
}

// checkSizes validates the serialized fields before anything is built:
// signs, the topology's dimension count, nodes x conc, an explicit procs,
// the grid product and an inline graph's header vertex count. Products are
// bounded as they accumulate, so none can overflow. Sizes beyond maxProcs
// or maxTopoDims wrap ErrRequestTooLarge; a size that is in bounds but
// disagrees with nodes x conc is an ordinary error.
func (r *Request) checkSizes() error {
	if r.Conc < 0 {
		return fmt.Errorf("rahtm: conc is %d", r.Conc)
	}
	if r.Torus != nil && r.Work != nil {
		return nil // nothing to build
	}
	nodes := 0
	if r.Torus != nil {
		nodes = r.Torus.N()
	} else {
		if len(r.Topo) == 0 {
			return fmt.Errorf("rahtm: request needs a topology (topo)")
		}
		if len(r.Topo) > maxTopoDims {
			return fmt.Errorf("rahtm: %w: %d topo dimensions, at most %d", ErrRequestTooLarge, len(r.Topo), maxTopoDims)
		}
		for i, k := range r.Topo {
			if k < 1 {
				return fmt.Errorf("rahtm: topo dimension %d is %d", i, k)
			}
		}
		var ok bool
		if nodes, ok = boundedProduct(r.Topo...); !ok {
			return fmt.Errorf("rahtm: %w: topo %v has more than %d nodes", ErrRequestTooLarge, r.Topo, maxProcs)
		}
	}
	procs, ok := boundedProduct(nodes, r.concOf())
	if !ok {
		return fmt.Errorf("rahtm: %w: %d nodes x %d concentration exceeds %d processes", ErrRequestTooLarge, nodes, r.concOf(), maxProcs)
	}
	if r.Work != nil {
		return nil
	}
	switch {
	case r.Procs < 0:
		return fmt.Errorf("rahtm: procs is %d", r.Procs)
	case r.Procs > maxProcs:
		return fmt.Errorf("rahtm: %w: procs %d exceeds %d", ErrRequestTooLarge, r.Procs, maxProcs)
	case r.Procs != 0 && r.Procs != procs:
		return fmt.Errorf("rahtm: %d processes != %d nodes x %d concentration", r.Procs, nodes, r.concOf())
	}
	// Signs first: a grid of paired negative extents would pass as a
	// positive product.
	for i, k := range r.Grid {
		if k < 1 {
			return fmt.Errorf("rahtm: grid dimension %d is %d", i, k)
		}
	}
	gridProcs, ok := boundedProduct(r.Grid...)
	if !ok {
		return fmt.Errorf("rahtm: %w: grid %v has more than %d processes", ErrRequestTooLarge, r.Grid, maxProcs)
	}
	if dims := haloDims[strings.ToLower(r.Workload)]; dims > 0 {
		if len(r.Grid) != dims {
			return fmt.Errorf("rahtm: halo%dd needs a %d-D grid", dims, dims)
		}
		if gridProcs != procs {
			return fmt.Errorf("rahtm: grid %v has %d processes != %d nodes x %d concentration", r.Grid, gridProcs, nodes, r.concOf())
		}
	}
	if r.Graph != "" {
		header, _, _ := strings.Cut(r.Graph, "\n")
		n, err := graph.ReadHeader(header)
		switch {
		case err != nil:
			return fmt.Errorf("rahtm: inline graph: %w", err)
		case n > maxProcs:
			return fmt.Errorf("rahtm: %w: inline graph has %d vertices, at most %d", ErrRequestTooLarge, n, maxProcs)
		case n != procs:
			return fmt.Errorf("rahtm: inline graph has %d vertices != %d nodes x %d concentration", n, nodes, r.concOf())
		}
	}
	return nil
}

// haloDims is the grid dimension count of each halo workload.
var haloDims = map[string]int{"halo2d": 2, "halo3d": 3}

// boundedProduct multiplies positive factors. ok is false as soon as the
// product would exceed maxProcs, so it never overflows.
func boundedProduct(xs ...int) (p int, ok bool) {
	p = 1
	for _, x := range xs {
		if x > maxProcs/p {
			return 0, false
		}
		p *= x
	}
	return p, true
}

// buildWorkload constructs the workload from the serialized fields, whose
// sizes checkSizes has bounded.
func (r *Request) buildWorkload(t *Torus) (*Workload, error) {
	if r.Graph != "" {
		if r.Workload != "" {
			return nil, fmt.Errorf("rahtm: request has both workload %q and an inline graph", r.Workload)
		}
		g, err := graph.Read(strings.NewReader(r.Graph))
		if err != nil {
			return nil, fmt.Errorf("rahtm: inline graph: %w", err)
		}
		return &Workload{Name: "inline", Grid: r.Grid, Graph: g, CommFraction: 0.5}, nil
	}
	procs := t.N() * r.concOf() // checkSizes made a nonzero Procs equal to it
	switch strings.ToLower(r.Workload) {
	case "bt", "sp", "cg":
		return WorkloadByName(r.Workload, procs)
	case "halo2d":
		return Halo2D(r.Grid[0], r.Grid[1], 10), nil
	case "halo3d":
		return Halo3D(r.Grid[0], r.Grid[1], r.Grid[2], 10), nil
	case "random":
		return RandomNeighbors(procs, 4, 10, 1), nil
	case "":
		return nil, fmt.Errorf("rahtm: request needs a workload name or an inline graph")
	}
	return nil, fmt.Errorf("rahtm: unknown workload %q (want BT, SP, CG, halo2d, halo3d or random)", r.Workload)
}

// Key returns the content-addressed cache key of the request: a hash over
// everything that determines the resulting mapping — the graph's structural
// hash (the same fingerprint the pipeline's sibling-reuse cache keys on),
// the topology, the concentration, the mapper choice and its search knobs.
// The deadline and the parallelism are deliberately excluded: results are
// byte-identical across worker counts, and deadline-degraded results are
// never cached (see internal/serve), so equal keys mean equal mappings.
func (r *Request) Key() (string, error) {
	w, t, err := r.Materialize()
	if err != nil {
		return "", err
	}
	h := fnv.New64a()
	put := func(vs ...uint64) {
		var buf [8]byte
		for _, v := range vs {
			for i := 0; i < 8; i++ {
				buf[i] = byte(v >> (8 * i))
			}
			h.Write(buf[:])
		}
	}
	put(w.Graph.StructuralHash())
	for _, g := range w.Grid {
		put(uint64(g) + 3)
	}
	put(uint64(t.NumDims()))
	for d := 0; d < t.NumDims(); d++ {
		wrap := uint64(0)
		if t.Wrap(d) {
			wrap = 1
		}
		put(uint64(t.Dim(d)), wrap)
	}
	put(uint64(r.concOf()), uint64(r.BeamWidth))
	name := strings.ToLower(strings.TrimSpace(r.Mapper))
	if name == "" {
		name = "rahtm"
	}
	h.Write([]byte(name))
	return fmt.Sprintf("%016x", h.Sum64()), nil
}

// Solve is the single mapping entry point: it materializes the request,
// resolves the mapper, applies the deadline, runs the solve, and returns a
// Result with quality metrics filled in. Canceling ctx outright aborts with
// ctx.Err(); an expired deadline (from ctx or Request.DeadlineMS) instead
// degrades to the best valid mapping found so far, flagged Result.Degraded.
func Solve(ctx context.Context, req Request) (res *Result, err error) {
	w, t, err := (&req).Materialize()
	if err != nil {
		return nil, err
	}
	conc := (&req).concOf()
	mapper, err := (&req).resolveMapper(t)
	if err != nil {
		return nil, err
	}
	// When the context carries a telemetry scope, the solver layers write
	// their counters into the scope's registry instead of the process-wide
	// one. Fold the delta accrued during this solve back into the global
	// registry on the way out (so process totals stay whole) and stamp the
	// per-request slice onto the result.
	scope := telemetry.ScopeFrom(ctx)
	if scope != nil && scope.Reg != nil {
		prev := scope.Reg.Snapshot()
		defer func() {
			delta := scope.Reg.Snapshot().Sub(prev)
			telemetry.Default.Merge(delta)
			if res != nil {
				res.TraceID = scope.TraceID
				res.Metrics = delta.Counters
			}
		}()
	}
	// Request.Observer joins the observer of a copy of the caller's scope
	// (or of an observer-only scope), so below here spans have one path.
	if req.Observer != nil {
		var s telemetry.Scope
		if scope != nil {
			s = *scope
		}
		s.Observer = telemetry.Tee(s.Observer, req.Observer)
		scope = &s
		ctx = telemetry.WithScope(ctx, scope)
	}
	if req.DeadlineMS > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, time.Duration(req.DeadlineMS)*time.Millisecond)
		defer cancel()
	}
	start := time.Now()
	mp, pres, err := mapProcs(ctx, mapper, w, t, conc)
	if err != nil {
		return nil, err
	}
	res = &Result{Mapping: mp, Mapper: mapper.Name(), Workload: w.Name, Topology: t.String(), Detail: pres}
	if pres != nil {
		stats := pres.Stats
		res.Stats = &stats
		res.Degraded = stats.Degraded
	}
	res.WallMS = float64(time.Since(start)) / float64(time.Millisecond)
	res.MCL = routing.MaxChannelLoad(t, w.Graph, res.Mapping, routing.MinimalAdaptive{}.WithScope(scope))
	res.HopBytes = metrics.HopBytes(t, w.Graph, res.Mapping)
	return res, nil
}

// mapProcs runs one mapper on a materialized problem: RAHTM through the
// pipeline, which also returns its full output; a CtxProcMapper under ctx;
// any other mapper through plain MapProcs. Solve and CompareCtx both map
// through it.
func mapProcs(ctx context.Context, m ProcMapper, w *Workload, t *Torus, conc int) (Mapping, *PipelineResult, error) {
	switch m := m.(type) {
	case Mapper:
		pres, err := core.MapPartitionedCtx(ctx, w.Graph, t, core.Config{
			Concentration: conc,
			GridDims:      w.Grid,
			Leaf:          m.Leaf,
			Merge:         m.Merge,
			Parallelism:   m.Parallelism,
		})
		if err != nil {
			return nil, nil, err
		}
		return pres.ProcToNode, pres, nil
	case CtxProcMapper:
		mp, err := m.MapProcsCtx(ctx, w, t, conc)
		return mp, nil, err
	}
	mp, err := m.MapProcs(w, t, conc)
	return mp, nil, err
}

// resolveMapper picks the mapper for the request: the Config escape hatch
// when set, the named registry entry otherwise, with the serialized
// Parallelism/BeamWidth knobs applied to RAHTM mappers.
func (r *Request) resolveMapper(t *Torus) (ProcMapper, error) {
	if r.Config != nil {
		return *r.Config, nil
	}
	name := r.Mapper
	if name == "" {
		name = "rahtm"
	}
	f, err := MapperByName(name)
	if err != nil {
		return nil, err
	}
	m := f(t)
	if rm, ok := m.(Mapper); ok {
		rm.Parallelism = r.Parallelism
		if r.BeamWidth > 0 {
			rm.Merge.BeamWidth = r.BeamWidth
		}
		m = rm
	}
	return m, nil
}
