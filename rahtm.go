// Package rahtm is a Go implementation of RAHTM — Routing Algorithm Aware
// Hierarchical Task Mapping (Abdel-Gawad, Thottethodi, Bhatele; SC 2014) —
// together with every substrate the paper relies on: an LP/MILP solver, a
// k-ary n-torus topology model, a minimal-adaptive-routing channel-load
// evaluator, the baseline mappers the paper compares against, synthetic NAS
// BT/SP/CG communication workloads, and a flow-level network performance
// model.
//
// The central operation maps an MPI-style communication graph onto a torus
// so as to minimize the maximum channel load (MCL) under minimal adaptive
// routing. The unified entry point is Solve, which takes a serializable
// Request and returns a Result with the mapping and its quality metrics —
// the same types the rahtm-serve daemon speaks over HTTP/JSON:
//
//	res, _ := rahtm.Solve(ctx, rahtm.Request{
//		Workload: "BT", Procs: 1024,       // NAS BT on 1024 processes
//		Topo:     []int{4, 4, 4},          // 64-node 3-D torus
//		Conc:     16,                      // 16 processes per node
//	})
//	_ = res.Mapping                            // rank -> node
//	_ = res.MCL                                // max channel load
//
// Library callers holding Workload/Torus values pass them directly via
// Request.Work and Request.Torus, and a configured pipeline via
// Request.Config. Every long-running operation takes a context and has no
// context-free twin; Mapper.MapProcs is the one exception, because it is
// the ProcMapper method every baseline implements, and it calls Solve.
//
// Observability: always-on metrics counters snapshot via Metrics(); the
// pipeline reports every completed phase and scheduler job as a Span to the
// Observer of the Scope on the solve context (or Request.Observer).
// SpanRecorder, ProgressTracker and LogObserver are the observers;
// ServeMetrics exposes the live view (telemetry.go; DESIGN.md §8).
//
// See DESIGN.md for the system inventory and EXPERIMENTS.md for the
// paper-versus-measured results of every figure and table.
package rahtm

import (
	"context"

	"rahtm/internal/core"
	"rahtm/internal/graph"
	"rahtm/internal/hiermap"
	"rahtm/internal/mappers"
	"rahtm/internal/merge"
	"rahtm/internal/metrics"
	"rahtm/internal/netsim"
	"rahtm/internal/routing"
	"rahtm/internal/topology"
	"rahtm/internal/workload"
)

// Re-exported core types. The library keeps implementations in internal
// packages; these aliases are the supported public surface.
type (
	// Torus is a k-ary n-dimensional torus or mesh topology.
	Torus = topology.Torus
	// Mapping assigns tasks (process ranks or node-level clusters) to
	// topology nodes.
	Mapping = topology.Mapping
	// Comm is a weighted directed communication graph. It is immutable
	// once built, so solves may share one.
	Comm = graph.Comm
	// GraphBuilder collects traffic and builds a Comm (see NewGraph).
	GraphBuilder = graph.Builder
	// Flow is one directed communication demand of a Comm.
	Flow = graph.Flow
	// Workload is a benchmark communication pattern with its metadata.
	Workload = workload.Workload
	// Report carries mapping-quality metrics.
	Report = metrics.Report
	// CommReport breaks down simulated communication time.
	CommReport = netsim.CommReport
	// Model holds network bandwidth parameters for simulation.
	Model = netsim.Model
	// PipelineResult is the full RAHTM pipeline output. It keeps one int
	// per node, not per process, for ProcTask, which reads ProcToNode.
	PipelineResult = core.Result
	// PipelineConfig tunes the RAHTM pipeline.
	PipelineConfig = core.Config
	// LeafConfig tunes the Phase 2 subproblem solver.
	LeafConfig = hiermap.Config
	// MergeConfig tunes the Phase 3 beam search.
	MergeConfig = merge.Config
	// ProcMapper is anything that can map a workload's processes onto a
	// topology (RAHTM itself and all baselines implement it).
	ProcMapper = mappers.Mapper
)

// Leaf solver methods for LeafConfig.Method.
const (
	LeafAuto       = hiermap.Auto
	LeafMILP       = hiermap.MILP
	LeafExhaustive = hiermap.Exhaustive
	LeafAnneal     = hiermap.Anneal
)

// Topology constructors.
var (
	// NewTorus builds a fully wrapped torus.
	NewTorus = topology.NewTorus
	// NewMesh builds an unwrapped mesh.
	NewMesh = topology.NewMesh
	// NewGraph returns a GraphBuilder over n vertices: add traffic with
	// AddTraffic, then call Build for the Comm.
	NewGraph = graph.New
	// Identity returns the mapping task i -> node i.
	Identity = topology.Identity
)

// Workload generators (the paper's benchmarks and generic patterns).
var (
	BT              = workload.BT
	SP              = workload.SP
	CG              = workload.CG
	WorkloadByName  = workload.ByName
	Suite           = workload.Suite
	Halo2D          = workload.Halo2D
	Halo3D          = workload.Halo3D
	RandomNeighbors = workload.RandomNeighbors
	Ring            = workload.Ring
	Transpose       = workload.Transpose
	Sweep           = workload.Sweep
	Spectral        = workload.Spectral
	ManyToOne       = workload.ManyToOne
)

// PhasedWorkload is a multi-phase application: distinct communication
// patterns separated by barriers. Map the Union graph; simulate with
// PhasedCommTime, which pays each phase's bottleneck in sequence.
type PhasedWorkload = workload.Phased

// NewPhased combines single-pattern workloads into a phased application.
var NewPhased = workload.NewPhased

// PhasedCommTime sums per-phase communication times for a mapping (phases
// are barrier-separated and do not overlap on the network).
func PhasedCommTime(t *Torus, phases []*Comm, m Mapping, model Model) (float64, []*CommReport, error) {
	return netsim.PhasedCommTime(t, phases, m, model)
}

// ReadGraph parses the plain-text communication graph format
// ("comm <n>" header, then "src dst vol" lines). To add traffic to the
// graph it returns, copy its flows into a NewGraph builder
// (g.EachFlow(b.AddTraffic)).
var ReadGraph = graph.Read

// Mapper runs the full RAHTM pipeline as a ProcMapper. The zero value uses
// the paper's defaults (beam width 64, exhaustive leaf solver up to 8-node
// cubes, annealing above).
type Mapper struct {
	// Leaf configures the Phase 2 cube solver.
	Leaf LeafConfig
	// Merge configures the Phase 3 beam search.
	Merge MergeConfig
	// DisableSiblingReuse turns off the symmetry caches.
	DisableSiblingReuse bool
	// Parallelism bounds the worker goroutines of the level-wise Phase 2/3
	// scheduler: 0 uses GOMAXPROCS, 1 or less runs fully sequentially.
	// Results are identical for every setting. A panic on one of its
	// workers (in an Observer, say) is re-raised on the caller.
	Parallelism int
}

// Name implements ProcMapper.
func (Mapper) Name() string { return "RAHTM" }

// MapProcs implements ProcMapper: it runs clustering, hierarchical MILP
// mapping and beam merging through Solve and returns the process-to-node
// mapping. Solve takes a context and also returns the pipeline detail.
func (m Mapper) MapProcs(w *Workload, t *Torus, conc int) (Mapping, error) {
	res, err := Solve(context.Background(), Request{Work: w, Torus: t, Conc: conc, Config: &m})
	if err != nil {
		return nil, err
	}
	return res.Mapping, nil
}

// Baseline mappers (see §IV "Other mappings").

// NewPermutation builds a BG/Q-style dimension-order mapper from a spec
// such as "ABCDET".
func NewPermutation(spec string) ProcMapper { return mappers.Permutation{Spec: spec} }

// NewHilbert builds the Hilbert-curve mapper.
func NewHilbert() ProcMapper { return mappers.Hilbert{} }

// NewRHT builds the Rubik-style hierarchical tiling mapper.
func NewRHT() ProcMapper { return mappers.RHT{} }

// NewGreedyHopBytes builds the routing-unaware greedy mapper.
func NewGreedyHopBytes() ProcMapper { return mappers.GreedyHopBytes{} }

// NewRandom builds a seeded random mapper.
func NewRandom(seed int64) ProcMapper { return mappers.Random{Seed: seed} }

// NewRecursiveBisection builds the Chaco-style recursive-bisection mapper
// (topology-aware, routing-unaware).
func NewRecursiveBisection() ProcMapper { return mappers.RecursiveBisection{} }

// DefaultMapper returns the machine default (ABCDET-style) for t — the
// registry's "default" entry.
func DefaultMapper(t *Torus) ProcMapper { return mustMapper("default")(t) }

// mustMapper resolves a built-in registry name; the built-ins are always
// registered, so failure is a programming error.
func mustMapper(name string) MapperFactory {
	f, err := MapperByName(name)
	if err != nil {
		panic(err)
	}
	return f
}

// StandardPermutations returns the paper's dimension-permutation baselines
// generalized to t's dimensionality: the default (ABCDET-style), the T-first
// variant (TABCDE-style), and the interleaved variant (ACEBDT-style).
// Variants whose spec coincides with an earlier one are dropped — on 1-D and
// 2-D tori the interleaved order equals the default, so those tori get two
// baselines rather than a duplicated pair.
func StandardPermutations(t *Torus) []ProcMapper {
	nd := t.NumDims()
	letters := make([]byte, 0, nd+1)
	for d := 0; d < nd; d++ {
		letters = append(letters, byte('A'+d))
	}
	def := string(letters) + "T"
	tFirst := "T" + string(letters)
	var inter []byte
	for d := 0; d < nd; d += 2 {
		inter = append(inter, byte('A'+d))
	}
	for d := 1; d < nd; d += 2 {
		inter = append(inter, byte('A'+d))
	}
	interleaved := string(inter) + "T"

	specs := []string{def, tFirst, interleaved}
	seen := make(map[string]bool, len(specs))
	out := make([]ProcMapper, 0, len(specs))
	for _, spec := range specs {
		if seen[spec] {
			continue
		}
		seen[spec] = true
		out = append(out, mappers.Permutation{Spec: spec})
	}
	return out
}

// StandardMappers returns the paper's full comparison set for t: the three
// permutation baselines, Hilbert, RHT, and RAHTM — in Figure 8's order with
// the default mapping first (it is the baseline everything is normalized
// to). Each entry is built through the mapper registry, so the set stays
// consistent with what MapperByName serves over the wire.
func StandardMappers(t *Torus) []ProcMapper {
	out := StandardPermutations(t)
	for _, name := range []string{"hilbert", "rht", "rahtm"} {
		out = append(out, mustMapper(name)(t))
	}
	return out
}

// Measure computes mapping-quality metrics under the minimal adaptive
// routing approximation.
func Measure(t *Torus, g *Comm, m Mapping) Report {
	return metrics.Measure(t, g, m, routing.MinimalAdaptive{})
}

// MCL returns the maximum channel load of g mapped by m under the minimal
// adaptive routing approximation.
func MCL(t *Torus, g *Comm, m Mapping) float64 {
	return routing.MaxChannelLoad(t, g, m, routing.MinimalAdaptive{})
}

// HopBytes returns the routing-oblivious hop-bytes metric.
func HopBytes(t *Torus, g *Comm, m Mapping) float64 {
	return metrics.HopBytes(t, g, m)
}

// CommTime estimates one iteration's communication time under the network
// model (zero Model takes BG/Q-flavored defaults).
func CommTime(t *Torus, g *Comm, m Mapping, model Model) (*CommReport, error) {
	return netsim.CommTime(t, g, m, model)
}
