package core

import (
	"context"
	"math"
	"strings"
	"testing"

	"rahtm/internal/graph"
	"rahtm/internal/routing"
	"rahtm/internal/telemetry"
	"rahtm/internal/topology"
)

// halo2D builds a periodic 2-D nearest-neighbor exchange on rows x cols.
func halo2D(rows, cols int, w float64) *graph.Comm {
	g := graph.New(rows * cols)
	id := func(i, j int) int { return i*cols + j }
	for i := 0; i < rows; i++ {
		for j := 0; j < cols; j++ {
			g.AddTraffic(id(i, j), id(i, (j+1)%cols), w)
			g.AddTraffic(id(i, (j+1)%cols), id(i, j), w)
			g.AddTraffic(id(i, j), id((i+1)%rows, j), w)
			g.AddTraffic(id((i+1)%rows, j), id(i, j), w)
		}
	}
	return g.Build()
}

// butterflyRows builds a CG-like pattern: power-of-two distance exchanges
// within each row of a rows x cols process grid.
func butterflyRows(rows, cols int, w float64) *graph.Comm {
	g := graph.New(rows * cols)
	id := func(i, j int) int { return i*cols + j }
	for i := 0; i < rows; i++ {
		for j := 0; j < cols; j++ {
			for s := 1; s < cols; s *= 2 {
				g.AddTraffic(id(i, j), id(i, j^s), w)
			}
		}
	}
	return g.Build()
}

func TestPipelineSixteenProcessExample(t *testing.T) {
	// The paper's running example scale: 16 processes onto a 4x4 torus.
	tp := topology.NewTorus(4, 4)
	g := halo2D(4, 4, 10)
	res, err := MapProcessesCtx(context.Background(), g, tp, Config{GridDims: []int{4, 4}})
	if err != nil {
		t.Fatal(err)
	}
	if err := res.NodeMapping.Validate(16, true); err != nil {
		t.Fatal(err)
	}
	if err := res.ProcToNode.Validate(16, true); err != nil {
		t.Fatal(err)
	}
	// RAHTM must not lose to the default (identity / ABCDET-style) mapping.
	def := routing.MaxChannelLoad(tp, g, topology.Identity(16), routing.MinimalAdaptive{})
	if res.MCL > def+1e-9 {
		t.Fatalf("RAHTM MCL %v worse than default %v", res.MCL, def)
	}
	if res.Stats.Subproblems == 0 || res.Stats.Merges == 0 {
		t.Fatalf("phases did not run: %+v", res.Stats)
	}
}

func TestPipelineBeatsDefaultOnButterfly(t *testing.T) {
	// Long-distance butterfly rows are hostile to the default mapping;
	// RAHTM should find a strictly better placement.
	tp := topology.NewTorus(4, 4)
	g := butterflyRows(2, 8, 5)
	res, err := MapProcessesCtx(context.Background(), g, tp, Config{GridDims: []int{2, 8}})
	if err != nil {
		t.Fatal(err)
	}
	def := routing.MaxChannelLoad(tp, g, topology.Identity(16), routing.MinimalAdaptive{})
	if res.MCL >= def {
		t.Fatalf("RAHTM MCL %v, default %v: expected strict improvement", res.MCL, def)
	}
}

func TestPipelineConcentration(t *testing.T) {
	// 64 processes on a 4x4 torus with 4 processes per node.
	tp := topology.NewTorus(4, 4)
	g := halo2D(8, 8, 3)
	res, err := MapProcessesCtx(context.Background(), g, tp, Config{Concentration: 4, GridDims: []int{8, 8}})
	if err != nil {
		t.Fatal(err)
	}
	if err := res.ProcToNode.Validate(16, false); err != nil {
		t.Fatal(err)
	}
	// Every node holds exactly 4 processes.
	counts := make(map[int]int)
	for _, n := range res.ProcToNode {
		counts[n]++
	}
	for n, c := range counts {
		if c != 4 {
			t.Fatalf("node %d holds %d processes, want 4", n, c)
		}
	}
	// Clustering must have absorbed some volume on-node.
	if res.Stats.ClusterQuality <= 0 {
		t.Fatalf("cluster quality = %v, want > 0", res.Stats.ClusterQuality)
	}
	// ProcTask is consistent with ProcToNode.
	for p := 0; p < g.N(); p++ {
		if res.NodeMapping[res.ProcTask(p)] != res.ProcToNode[p] {
			t.Fatal("ProcTask inconsistent with ProcToNode")
		}
	}
}

func TestPipelineThreeDimensional(t *testing.T) {
	tp := topology.NewTorus(4, 4, 2)
	g := halo2D(8, 4, 2) // 32 processes on a 2-D logical grid
	res, err := MapProcessesCtx(context.Background(), g, tp, Config{GridDims: []int{8, 4}})
	if err != nil {
		t.Fatal(err)
	}
	if err := res.NodeMapping.Validate(32, true); err != nil {
		t.Fatal(err)
	}
	def := routing.MaxChannelLoad(tp, g, topology.Identity(32), routing.MinimalAdaptive{})
	if res.MCL > def+1e-9 {
		t.Fatalf("RAHTM MCL %v worse than default %v", res.MCL, def)
	}
}

func TestPipelineDeterminism(t *testing.T) {
	tp := topology.NewTorus(4, 4)
	g := butterflyRows(4, 4, 2)
	cfg := Config{GridDims: []int{4, 4}}
	a, err := MapProcessesCtx(context.Background(), g, tp, cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := MapProcessesCtx(context.Background(), g, tp, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.NodeMapping {
		if a.NodeMapping[i] != b.NodeMapping[i] {
			t.Fatalf("nondeterministic mapping at task %d", i)
		}
	}
	if math.Abs(a.MCL-b.MCL) > 1e-12 {
		t.Fatal("nondeterministic MCL")
	}
}

func TestPipelineSiblingReuse(t *testing.T) {
	tp := topology.NewTorus(4, 4)
	g := halo2D(4, 4, 1)
	withReuse, err := MapProcessesCtx(context.Background(), g, tp, Config{GridDims: []int{4, 4}})
	if err != nil {
		t.Fatal(err)
	}
	if withReuse.Stats.SubproblemsHit == 0 {
		t.Fatalf("uniform stencil should hit the phase-2 cache: %+v", withReuse.Stats)
	}
	noReuse, err := MapProcessesCtx(context.Background(), g, tp, Config{GridDims: []int{4, 4}, DisableSiblingReuse: true})
	if err != nil {
		t.Fatal(err)
	}
	if noReuse.Stats.SubproblemsHit != 0 || noReuse.Stats.MergesHit != 0 {
		t.Fatal("reuse not disabled")
	}
	// Both runs must deliver equal-quality mappings (solvers are
	// deterministic, so identical subproblems solve identically).
	if math.Abs(withReuse.MCL-noReuse.MCL) > 1e-9 {
		t.Fatalf("reuse changed quality: %v vs %v", withReuse.MCL, noReuse.MCL)
	}
}

func TestPipelineErrors(t *testing.T) {
	tp := topology.NewTorus(4, 4)
	if _, err := MapProcessesCtx(context.Background(), graph.New(15).Build(), tp, Config{}); err == nil {
		t.Fatal("expected error: 15 processes on 16 nodes")
	}
	if _, err := MapProcessesCtx(context.Background(), graph.New(12).Build(), topology.NewTorus(3, 4), Config{}); err == nil {
		t.Fatal("expected error: non-power-of-two topology")
	}
	if _, err := MapProcessesCtx(context.Background(), graph.New(32).Build(), tp, Config{Concentration: 3}); err == nil {
		t.Fatal("expected error: concentration mismatch")
	}
}

func TestPipelineMeshTopology(t *testing.T) {
	tp := topology.NewMesh(4, 4)
	g := halo2D(4, 4, 1)
	res, err := MapProcessesCtx(context.Background(), g, tp, Config{GridDims: []int{4, 4}})
	if err != nil {
		t.Fatal(err)
	}
	if err := res.NodeMapping.Validate(16, true); err != nil {
		t.Fatal(err)
	}
	def := routing.MaxChannelLoad(tp, g, topology.Identity(16), routing.MinimalAdaptive{})
	if res.MCL > def+1e-9 {
		t.Fatalf("mesh RAHTM MCL %v worse than default %v", res.MCL, def)
	}
}

func TestPipelineGreedyFallbackWithoutGrid(t *testing.T) {
	tp := topology.NewTorus(4, 4)
	g := butterflyRows(4, 4, 1)
	res, err := MapProcessesCtx(context.Background(), g, tp, Config{}) // no GridDims
	if err != nil {
		t.Fatal(err)
	}
	if err := res.NodeMapping.Validate(16, true); err != nil {
		t.Fatal(err)
	}
}

func TestPipelineThreeLevelHierarchy(t *testing.T) {
	// torus(8,8) has a 3-level hierarchy (8 = 2^3): exercises multi-level
	// top-down mapping and two rounds of bottom-up merging.
	tp := topology.NewTorus(8, 8)
	g := halo2D(8, 8, 4)
	res, err := MapProcessesCtx(context.Background(), g, tp, Config{GridDims: []int{8, 8}})
	if err != nil {
		t.Fatal(err)
	}
	if err := res.NodeMapping.Validate(64, true); err != nil {
		t.Fatal(err)
	}
	def := routing.MaxChannelLoad(tp, g, topology.Identity(64), routing.MinimalAdaptive{})
	if res.MCL > def+1e-9 {
		t.Fatalf("RAHTM MCL %v worse than default %v", res.MCL, def)
	}
	// A matched halo admits a dilation-1 embedding; the pipeline should
	// find something close: MCL within 2x of the theoretical best
	// (2 flows x 4 volume per link = 8 with perfect blocking... the exact
	// optimum depends on wrap usage, so just bound it).
	if res.MCL > def {
		t.Fatalf("MCL = %v", res.MCL)
	}
	if res.Stats.Merges < 5 {
		t.Fatalf("expected multi-level merging, got %d merges", res.Stats.Merges)
	}
}

func TestPipelineTwoNodeTorus(t *testing.T) {
	// Smallest possible hierarchy: L = 1, phase 3 degenerates.
	tp := topology.NewTorus(2)
	b := graph.New(2)
	b.AddTraffic(0, 1, 5)
	g := b.Build()
	res, err := MapProcessesCtx(context.Background(), g, tp, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if err := res.NodeMapping.Validate(2, true); err != nil {
		t.Fatal(err)
	}
	// Flow of 5 splits over the double links: MCL 2.5.
	if math.Abs(res.MCL-2.5) > 1e-9 {
		t.Fatalf("MCL = %v, want 2.5", res.MCL)
	}
}

// TestPipelineBarredRootMerge checks a root merge the default-order bar
// stops: on a periodic 8x8 halo on an 8x8 torus, whose identity order no
// merged state can match, the root merge span reports the floor check's
// stop, no root candidate survives, and the result is the identity order
// with its MCL.
func TestPipelineBarredRootMerge(t *testing.T) {
	tp := topology.NewTorus(8, 8)
	rec := telemetry.NewRecorder()
	ctx := telemetry.WithScope(context.Background(), &telemetry.Scope{Observer: rec})
	g := halo2D(8, 8, 1)
	res, err := MapProcessesCtx(ctx, g, tp, Config{GridDims: []int{8, 8}})
	if err != nil {
		t.Fatal(err)
	}
	var root []telemetry.Span
	for _, sp := range rec.Spans() {
		if sp.Name == "merge" && sp.Level == 0 {
			root = append(root, sp)
		}
	}
	if len(root) != 1 || !root[0].Barred || root[0].BarSteps != 0 || root[0].MCL != 0 {
		t.Fatalf("root merge spans %+v, want one barred by the floor check", root)
	}
	if !res.Stats.DefaultFallback || res.Stats.CandidatesKept != 0 {
		t.Fatalf("DefaultFallback %v, CandidatesKept %d", res.Stats.DefaultFallback, res.Stats.CandidatesKept)
	}
	for task, node := range res.NodeMapping {
		if task != node {
			t.Fatalf("task %d on node %d, want the identity order", task, node)
		}
	}
	// At concentration 1 the node-level graph is the input graph.
	//rahtm:allow(floateq): the fallback returns the identity's own MCL evaluation, bit for bit
	if want := routing.MaxChannelLoad(tp, g, topology.Identity(tp.N()), routing.MinimalAdaptive{}); res.MCL != want {
		t.Fatalf("MCL %v, want the identity's %v", res.MCL, want)
	}
}

// TestSolveSpanProved checks that a solve span carries its leaf solver's
// Proved: on a periodic 16x16 halo on 4x4x4x4 every 16-node leaf stops at
// the per-node bound, and the JSONL form names it.
func TestSolveSpanProved(t *testing.T) {
	rec := telemetry.NewRecorder()
	ctx := telemetry.WithScope(context.Background(), &telemetry.Scope{Observer: rec})
	if _, err := MapProcessesCtx(ctx, halo2D(16, 16, 1), topology.NewTorus(4, 4, 4, 4), Config{GridDims: []int{16, 16}}); err != nil {
		t.Fatal(err)
	}
	solves := 0
	for _, sp := range rec.Spans() {
		if sp.Name != "solve" {
			continue
		}
		solves++
		if !sp.Proved {
			t.Fatalf("solve span %+v not proved", sp)
		}
	}
	if solves == 0 {
		t.Fatal("no solve spans")
	}
	var sb strings.Builder
	if err := rec.WriteJSONL(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), `"proved":true`) {
		t.Fatalf("JSONL has no proved field:\n%s", sb.String())
	}
}
