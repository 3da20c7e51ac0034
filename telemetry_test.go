package rahtm

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"
)

// runTraced runs the pipeline with a full telemetry stack attached and
// returns the result plus the recorder and tracker.
func runTraced(t *testing.T, parallelism int) (*PipelineResult, *SpanRecorder, *ProgressTracker) {
	t.Helper()
	w := Halo3D(4, 4, 8, 10) // 128 processes
	top := NewTorus(4, 4, 8) // 128 nodes
	rec := NewSpanRecorder()
	prog := NewProgressTracker()
	ctx := WithScope(context.Background(), &Scope{Observer: TeeObservers(rec, prog)})
	res, err := Mapper{Parallelism: parallelism}.PipelineCtx(ctx, w, top, 1)
	if err != nil {
		t.Fatal(err)
	}
	return res, rec, prog
}

// TestPhaseStatsEffectiveParallelism pins the work-time accounting under
// Parallelism=1 vs NumCPU: both settings produce the same mapping and
// subproblem counts, sequential effective parallelism stays ~1, and the
// parallel work time never exceeds wall x workers.
func TestPhaseStatsEffectiveParallelism(t *testing.T) {
	seq, _, _ := runTraced(t, 1)
	par, _, _ := runTraced(t, 0)
	if seq.MCL != par.MCL {
		t.Fatalf("MCL diverged: seq %v, par %v", seq.MCL, par.MCL)
	}
	if seq.Stats.Subproblems != par.Stats.Subproblems || seq.Stats.Merges != par.Stats.Merges {
		t.Fatalf("work diverged: seq %+v, par %+v", seq.Stats, par.Stats)
	}
	if seq.Stats.Parallelism != 1 {
		t.Fatalf("sequential Parallelism = %d", seq.Stats.Parallelism)
	}
	if par.Stats.Parallelism != runtime.NumCPU() {
		t.Fatalf("parallel Parallelism = %d, NumCPU %d", par.Stats.Parallelism, runtime.NumCPU())
	}
	for _, c := range []struct {
		name    string
		stats   PhaseStats
		workers int
	}{
		{"seq", seq.Stats, 1},
		{"par", par.Stats, par.Stats.Parallelism},
	} {
		if c.stats.MapWorkTime <= 0 || c.stats.MapTime <= 0 {
			t.Fatalf("%s: missing phase 2 times: %+v", c.name, c.stats)
		}
		// Work time is solver time summed across workers: it cannot exceed
		// wall x workers (plus scheduling jitter).
		limit := 1.15 * float64(c.workers)
		if eff := c.stats.MapParallelism(); eff > limit {
			t.Fatalf("%s: map eff. parallelism %v exceeds %v", c.name, eff, limit)
		}
		if eff := c.stats.MergeParallelism(); c.stats.MergeTime > 0 && eff > limit {
			t.Fatalf("%s: merge eff. parallelism %v exceeds %v", c.name, eff, limit)
		}
	}
}

// TestSpansNestWithinPhases pins the recorder contract: every job span
// falls inside its phase envelope (small tolerance for clock reads) and
// phase coverage is high — the scheduler's prepare/solve/fanout spans
// account for the phase wall.
func TestSpansNestWithinPhases(t *testing.T) {
	_, rec, _ := runTraced(t, 0)
	const tol = 10 * time.Millisecond
	for _, phase := range []string{PhaseMap, PhaseMerge} {
		env, ok := rec.PhaseSpan(phase)
		if !ok {
			t.Fatalf("phase %s not recorded", phase)
		}
		n := 0
		for _, s := range rec.Spans() {
			if s.Phase != phase || s.Name == "phase" {
				continue
			}
			n++
			if s.Start < env.Start-tol || s.End() > env.End()+tol {
				t.Fatalf("span %+v outside %s envelope [%v, %v]", s, phase, env.Start, env.End())
			}
		}
		if n == 0 {
			t.Fatalf("no job spans in phase %s", phase)
		}
		// The acceptance bar is >=95% on the long 512-proc run; this small
		// fixture keeps a conservative floor so scheduling noise cannot
		// flake the test.
		if cov := rec.PhaseCoverage(phase); cov < 0.5 {
			t.Fatalf("phase %s coverage %v < 0.5", phase, cov)
		}
	}
}

// TestProgressAndCountersEndToEnd checks that the progress view converges
// to the stats and that the always-on counters moved.
func TestProgressAndCountersEndToEnd(t *testing.T) {
	before := Metrics()
	res, rec, prog := runTraced(t, 0)
	delta := Metrics().Sub(before)
	p := prog.Snapshot()
	if p.Phase != PhaseMerge || !p.PhaseDone {
		t.Fatalf("final progress phase: %+v", p)
	}
	if p.Subproblems != res.Stats.Subproblems {
		t.Fatalf("progress subproblems %d != stats %d", p.Subproblems, res.Stats.Subproblems)
	}
	if p.MapJobsDone != p.MapJobsPlanned || p.MergeJobsDone != p.MergeJobsPlanned {
		t.Fatalf("jobs done != planned: %+v", p)
	}
	if p.MapJobsDone == 0 || p.MergeJobsDone == 0 {
		t.Fatalf("no jobs tracked: %+v", p)
	}
	if p.BestLevel != 0 || p.BestMCL <= 0 {
		t.Fatalf("best MCL not tracked to the root: %+v", p)
	}
	// The fixture's 8-node cubes use the exhaustive leaf solver, so the
	// anneal/LP/MILP counters legitimately stay at zero here.
	for _, ctr := range []string{
		"routing.stencil.hits",
		"core.subproblems",
		"core.merges",
		"merge.beam.candidates",
		"merge.beam.kept",
		"merge.symmetry.evals",
	} {
		if delta.Counter(ctr) <= 0 {
			t.Fatalf("counter %s did not move: %+v", ctr, delta.Counters)
		}
	}
	if delta.Counter("core.subproblems") != int64(res.Stats.Subproblems) {
		t.Fatalf("counter core.subproblems %d != stats %d",
			delta.Counter("core.subproblems"), res.Stats.Subproblems)
	}
	if delta.Counter("core.subproblems.reused") != int64(res.Stats.SubproblemsHit) {
		t.Fatalf("counter core.subproblems.reused %d != stats %d",
			delta.Counter("core.subproblems.reused"), res.Stats.SubproblemsHit)
	}

	// Exports round-trip as valid JSON.
	var buf bytes.Buffer
	if err := rec.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var trace struct {
		TraceEvents []json.RawMessage `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &trace); err != nil {
		t.Fatalf("chrome trace invalid: %v", err)
	}
	if len(trace.TraceEvents) < rec.Len() {
		t.Fatalf("trace has %d events for %d spans", len(trace.TraceEvents), rec.Len())
	}
}

func TestWriteTelemetryReportFacade(t *testing.T) {
	res, _, _ := runTraced(t, 0)
	var sb strings.Builder
	if err := WriteTelemetryReport(&sb, &res.Stats); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"telemetry report", "map", "merge", "stencil cache", "sibling reuse"} {
		if !strings.Contains(out, want) {
			t.Fatalf("report missing %q:\n%s", want, out)
		}
	}
	sb.Reset()
	if err := WriteTelemetryReport(&sb, nil); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "telemetry report") {
		t.Fatalf("counters-only report:\n%s", sb.String())
	}
}

func TestServeMetricsFacade(t *testing.T) {
	prog := NewProgressTracker()
	s, err := ServeMetrics("localhost:0", prog.Snapshot)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if s.URL() == "" {
		t.Fatal("no URL")
	}
}

// TestSpanObserverByteIdentical pins the one-path contract of the span
// model: however an observer is attached — Request.Observer alone, on the
// context's scope, or both — it sees the same spans, and tracing changes
// neither the result nor any counter. Solves one instance four ways at
// parallelism 1 and 4: untraced, Request.Observer alone, a scope carrying
// the observer, and a scope observer plus Request.Observer.
func TestSpanObserverByteIdentical(t *testing.T) {
	keys := []string{
		"routing.stencil.hits", "merge.beam.candidates", "merge.beam.kept", "merge.symmetry.evals",
		"anneal.moves", "core.subproblems", "core.subproblems.reused", "core.merges", "core.merges.reused",
	}
	type spanKey struct {
		name, phase string
		level       int
		hash        uint64
		jobs        int
		mcl         float64
	}
	multiset := func(spans []Span) map[spanKey]int {
		out := map[spanKey]int{}
		for _, sp := range spans {
			out[spanKey{sp.Name, sp.Phase, sp.Level, sp.Hash, sp.Jobs, sp.MCL}]++
		}
		return out
	}
	// stable is the part of PhaseStats that does not measure time.
	stable := func(s PhaseStats) PhaseStats {
		s.ClusterTime, s.MapTime, s.MergeTime, s.MapWorkTime, s.MergeWorkTime = 0, 0, 0, 0, 0
		return s
	}
	for _, par := range []int{1, 4} {
		var base *Result
		var baseDelta map[string]int64
		var baseSpans map[spanKey]int
		for _, mode := range []string{"untraced", "request", "scope", "both"} {
			req := Request{
				Work:   Halo2D(8, 8, 10),
				Torus:  NewTorus(8, 8),
				Config: &Mapper{Parallelism: par, Leaf: LeafConfig{Method: LeafAnneal, AnnealIters: 200}},
			}
			ctx := context.Background()
			var scope *Scope
			var recs []*SpanRecorder
			if mode == "scope" || mode == "both" {
				scope = NewScope("")
				rec := NewSpanRecorder()
				scope.Observer = rec
				recs = append(recs, rec)
				ctx = WithScope(ctx, scope)
			}
			if mode == "request" || mode == "both" {
				rec := NewSpanRecorder()
				req.Observer = rec
				recs = append(recs, rec)
			}
			before := Metrics()
			res, err := Solve(ctx, req)
			if err != nil {
				t.Fatal(err)
			}
			after := Metrics().Sub(before)
			delta := map[string]int64{}
			for _, k := range keys {
				delta[k] = after.Counter(k)
			}
			label := fmt.Sprintf("parallelism %d, %s", par, mode)

			wantTrace := ""
			if scope != nil {
				wantTrace = scope.TraceID
				for _, k := range keys {
					if res.Metrics[k] != delta[k] {
						t.Fatalf("%s: Result.Metrics[%s] = %d, process-wide delta %d", label, k, res.Metrics[k], delta[k])
					}
				}
			} else if res.Metrics != nil {
				t.Fatalf("%s: Result.Metrics = %v without a scope", label, res.Metrics)
			}
			if res.TraceID != wantTrace {
				t.Fatalf("%s: Result.TraceID %q, want %q", label, res.TraceID, wantTrace)
			}
			for _, rec := range recs {
				spans := rec.Spans()
				for _, sp := range spans {
					if sp.TraceID != wantTrace {
						t.Fatalf("%s: span %+v carries trace %q, want %q", label, sp, sp.TraceID, wantTrace)
					}
				}
				ms := multiset(spans)
				if baseSpans == nil {
					baseSpans = ms
					kinds := map[string]bool{}
					for k := range ms {
						kinds[k.name] = true
					}
					if len(kinds) != 6 {
						t.Fatalf("%s: span kinds %v, want all six", label, kinds)
					}
				} else if !reflect.DeepEqual(ms, baseSpans) {
					t.Fatalf("%s: span multiset differs:\n%v\nwant\n%v", label, ms, baseSpans)
				}
			}

			if base == nil {
				base, baseDelta = res, delta
				if delta["anneal.moves"] == 0 || delta["merge.beam.candidates"] == 0 {
					t.Fatalf("%s: fixture moved no anneal/merge counters: %v", label, delta)
				}
				continue
			}
			if !reflect.DeepEqual(res.Mapping, base.Mapping) || res.MCL != base.MCL {
				t.Fatalf("%s: mapping or MCL (%v) differs from untraced (%v)", label, res.MCL, base.MCL)
			}
			if !reflect.DeepEqual(stable(*res.Stats), stable(*base.Stats)) {
				t.Fatalf("%s: stats %+v, untraced %+v", label, *res.Stats, *base.Stats)
			}
			if !reflect.DeepEqual(delta, baseDelta) {
				t.Fatalf("%s: process-wide deltas %v, untraced %v", label, delta, baseDelta)
			}
		}
	}
}
