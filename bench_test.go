package rahtm

// One benchmark per table/figure of the paper's evaluation (see DESIGN.md's
// per-experiment index), plus ablation benches for the design choices of
// §III. Benchmarks print their paper-style tables once and report the key
// quantities as custom metrics, so
//
//	go test -bench=. -benchmem
//
// regenerates the full evaluation. Scales are laptop-sized by default; the
// cmd/rahtm-bench tool exposes the paper-scale configuration.

import (
	"context"
	"fmt"
	"os"
	"sync"
	"testing"

	"rahtm/internal/hiermap"
	"rahtm/internal/lp"
	"rahtm/internal/mcflow"
	"rahtm/internal/routing"
	"rahtm/internal/topology"
)

// benchTopo is the default benchmark platform: a 64-node 3-D torus with
// concentration 4 (256 processes), the laptop-scale stand-in for the
// paper's 512-node 4x4x4x4x2 Mira partition with concentration 32.
func benchTopo() (*Torus, int, int) { return NewTorus(4, 4, 4), 256, 4 }

var printOnce sync.Map

func printTable(key string, f func()) {
	once, _ := printOnce.LoadOrStore(key, new(sync.Once))
	once.(*sync.Once).Do(f)
}

// BenchmarkFigure1RoutingAwareExample reproduces Figure 1: the MCL-optimal
// diagonal mapping beats the hop-bytes-optimal adjacent mapping under
// minimal adaptive routing.
func BenchmarkFigure1RoutingAwareExample(b *testing.B) {
	gb := NewGraph(4)
	gb.AddTraffic(0, 1, 10)
	gb.AddTraffic(1, 2, 1)
	gb.AddTraffic(2, 3, 1)
	gb.AddTraffic(3, 0, 1)
	g := gb.Build()
	t := NewMesh(2, 2)
	adjacent := Mapping{0, 1, 3, 2}
	diagonal := Mapping{0, 3, 1, 2}
	var mclAdj, mclDiag float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mclAdj = MCL(t, g, adjacent)
		mclDiag = MCL(t, g, diagonal)
	}
	b.ReportMetric(mclAdj, "MCL-adjacent")
	b.ReportMetric(mclDiag, "MCL-diagonal")
	printTable("fig1", func() {
		fmt.Printf("\n[Figure 1] adjacent (hop-bytes optimal) MCL=%.3g; diagonal (MCL optimal) MCL=%.3g — paper: diagonal wins under MAR\n",
			mclAdj, mclDiag)
	})
}

// suiteComparison runs the Figure 8/10 engine once per benchmark iteration.
func suiteComparison(b *testing.B) []*Comparison {
	b.Helper()
	t, procs, conc := benchTopo()
	ws, err := Suite(procs)
	if err != nil {
		b.Fatal(err)
	}
	cs, err := CompareSuiteCtx(context.Background(), ws, t, conc, StandardMappers(t), Model{})
	if err != nil {
		b.Fatal(err)
	}
	return cs
}

// BenchmarkFigure8OverallTime regenerates Figure 8: overall execution time
// of BT/SP/CG under every mapper, relative to the default mapping.
func BenchmarkFigure8OverallTime(b *testing.B) {
	var cs []*Comparison
	for i := 0; i < b.N; i++ {
		cs = suiteComparison(b)
	}
	gm := cs[len(cs)-1]
	rahtmRow := gm.Rows[len(gm.Rows)-1]
	b.ReportMetric(100*(rahtmRow.RelExec-1), "exec-%-vs-default")
	printTable("fig8", func() {
		fmt.Println()
		_ = WriteTable(os.Stdout, cs, "exec")
		fmt.Printf("[Figure 8] RAHTM geomean execution change: %+.1f%% (paper: -9%%)\n", 100*(rahtmRow.RelExec-1))
	})
}

// BenchmarkFigure9CommFraction regenerates Figure 9: the communication /
// computation split per benchmark under the default mapping.
func BenchmarkFigure9CommFraction(b *testing.B) {
	t, procs, conc := benchTopo()
	ws, err := Suite(procs)
	if err != nil {
		b.Fatal(err)
	}
	base := DefaultMapper(t)
	var frac float64
	for i := 0; i < b.N; i++ {
		for _, w := range ws {
			m, err := base.MapProcs(w, t, conc)
			if err != nil {
				b.Fatal(err)
			}
			rep, err := CommTime(t, w.Graph, m, Model{})
			if err != nil {
				b.Fatal(err)
			}
			_ = rep
			frac = w.CommFraction
		}
	}
	b.ReportMetric(frac, "CG-comm-fraction")
	printTable("fig9", func() {
		fmt.Println()
		_ = CommFractionTable(os.Stdout, ws, t, conc, base, Model{})
		fmt.Println("[Figure 9] paper: CG > 70% communication, BT/SP ~ 35%")
	})
}

// BenchmarkFigure10CommTime regenerates Figure 10: communication time per
// mapper relative to the default mapping.
func BenchmarkFigure10CommTime(b *testing.B) {
	var cs []*Comparison
	for i := 0; i < b.N; i++ {
		cs = suiteComparison(b)
	}
	gm := cs[len(cs)-1]
	rahtmRow := gm.Rows[len(gm.Rows)-1]
	b.ReportMetric(100*(rahtmRow.RelComm-1), "comm-%-vs-default")
	printTable("fig10", func() {
		fmt.Println()
		_ = WriteTable(os.Stdout, cs, "comm")
		fmt.Printf("[Figure 10] RAHTM geomean communication change: %+.1f%% (paper: -20%%)\n", 100*(rahtmRow.RelComm-1))
	})
}

// BenchmarkTable2MILPSolve solves the Table II MILP formulation on a 2x2
// leaf subproblem — the optimal-mapping building block of Phase 2.
func BenchmarkTable2MILPSolve(b *testing.B) {
	gb := NewGraph(4)
	gb.AddTraffic(0, 1, 10)
	gb.AddTraffic(1, 2, 1)
	gb.AddTraffic(2, 3, 1)
	gb.AddTraffic(3, 0, 1)
	g := gb.Build()
	var mcl float64
	for i := 0; i < b.N; i++ {
		res, err := hiermap.MapCtx(context.Background(), g, NewMesh(2, 2), hiermap.Config{Method: hiermap.MILP})
		if err != nil {
			b.Fatal(err)
		}
		if !res.Proved {
			b.Fatal("MILP failed to prove optimality")
		}
		mcl = res.MCL
	}
	b.ReportMetric(mcl, "optimal-MCL")
}

// BenchmarkSectionVBOptimizationTime measures RAHTM's offline mapping cost
// (the paper's §V-B: 33 minutes for BT up to 35 hours for CG at 16K scale;
// seconds at this scale).
func BenchmarkSectionVBOptimizationTime(b *testing.B) {
	t, procs, conc := benchTopo()
	w, err := CG(procs)
	if err != nil {
		b.Fatal(err)
	}
	var res *PipelineResult
	for i := 0; i < b.N; i++ {
		res, err = pipelineResult(context.Background(), Mapper{}, w, t, conc)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(res.Stats.MapTime.Milliseconds()), "phase2-ms")
	b.ReportMetric(float64(res.Stats.MergeTime.Milliseconds()), "phase3-ms")
	printTable("vb", func() {
		s := res.Stats
		fmt.Printf("\n[Section V-B] CG mapping time at %d procs: cluster %v, map %v (%d subproblems, %d reused), merge %v (%d merges, %d reused)\n",
			procs, s.ClusterTime, s.MapTime, s.Subproblems, s.SubproblemsHit, s.MergeTime, s.Merges, s.MergesHit)
	})
}

// BenchmarkAblationBeamWidth compares Phase 3 beam widths (N of §III-D;
// N=1 is the pure-greedy strawman the paper argues against).
func BenchmarkAblationBeamWidth(b *testing.B) {
	t := NewTorus(4, 4)
	w, err := CG(16)
	if err != nil {
		b.Fatal(err)
	}
	for _, width := range []int{1, 4, 64} {
		b.Run(fmt.Sprintf("N=%d", width), func(b *testing.B) {
			var mcl float64
			for i := 0; i < b.N; i++ {
				m := Mapper{}
				m.Merge.BeamWidth = width
				mp, err := m.MapProcs(w, t, 1)
				if err != nil {
					b.Fatal(err)
				}
				mcl = MCL(t, w.Graph, mp)
			}
			b.ReportMetric(mcl, "MCL")
		})
	}
}

// BenchmarkAblationHopBytesVsMCL compares RAHTM against the greedy
// hop-bytes mapper — routing awareness versus the classic metric.
func BenchmarkAblationHopBytesVsMCL(b *testing.B) {
	t := NewTorus(4, 4)
	w, err := CG(16)
	if err != nil {
		b.Fatal(err)
	}
	for _, m := range []ProcMapper{NewGreedyHopBytes(), Mapper{}} {
		b.Run(m.Name(), func(b *testing.B) {
			var mcl float64
			for i := 0; i < b.N; i++ {
				mp, err := m.MapProcs(w, t, 1)
				if err != nil {
					b.Fatal(err)
				}
				mcl = MCL(t, w.Graph, mp)
			}
			b.ReportMetric(mcl, "MCL")
		})
	}
}

// BenchmarkAblationLeafSolver compares the Phase 2 solver choices on one
// 8-node cube subproblem.
func BenchmarkAblationLeafSolver(b *testing.B) {
	gb := NewGraph(8)
	for i := 0; i < 8; i++ {
		gb.AddTraffic(i, (i+1)%8, 10)
		gb.AddTraffic(i, (i+3)%8, 3)
	}
	g := gb.Build()
	for _, method := range []hiermap.Method{hiermap.Exhaustive, hiermap.Anneal, hiermap.MILP} {
		b.Run(method.String(), func(b *testing.B) {
			if method == hiermap.MILP && testing.Short() {
				b.Skip("MILP leaf solve is slow in -short mode")
			}
			var mcl float64
			for i := 0; i < b.N; i++ {
				res, err := hiermap.MapCtx(context.Background(), g, NewMesh(2, 2, 2), hiermap.Config{Method: method, Seed: 1})
				if err != nil {
					b.Fatal(err)
				}
				mcl = res.MCL
			}
			b.ReportMetric(mcl, "MCL")
		})
	}
}

// BenchmarkAblationEvaluator compares the closed-form uniform-split DP
// evaluator against the LP optimal-split evaluator on the same mapping.
func BenchmarkAblationEvaluator(b *testing.B) {
	t := topology.NewTorus(4, 4)
	w, err := CG(16)
	if err != nil {
		b.Fatal(err)
	}
	m := topology.Identity(16)
	b.Run("uniform-DP", func(b *testing.B) {
		var mcl float64
		for i := 0; i < b.N; i++ {
			mcl = routing.MaxChannelLoad(t, w.Graph, m, routing.MinimalAdaptive{})
		}
		b.ReportMetric(mcl, "MCL")
	})
	b.Run("LP-optimal-split", func(b *testing.B) {
		var mcl float64
		for i := 0; i < b.N; i++ {
			res, _, err := mcflow.EvaluateWithRoutesCtx(context.Background(), t, w.Graph, m, lp.Options{})
			if err != nil {
				b.Fatal(err)
			}
			mcl = res.MCL
		}
		b.ReportMetric(mcl, "MCL")
	})
}

// BenchmarkRoutingEvaluation measures the core inner-loop cost: one full
// channel-load evaluation of a 256-process CG pattern.
func BenchmarkRoutingEvaluation(b *testing.B) {
	t, procs, conc := benchTopo()
	w, err := CG(procs)
	if err != nil {
		b.Fatal(err)
	}
	m, err := DefaultMapper(t).MapProcs(w, t, conc)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = MCL(t, w.Graph, m)
	}
}

// BenchmarkSimplexLP measures the LP substrate on a mid-size problem.
func BenchmarkSimplexLP(b *testing.B) {
	build := func() *lp.Problem {
		p := lp.NewProblem(0)
		n := 30
		vars := make([]int, n)
		for i := 0; i < n; i++ {
			vars[i] = p.AddVariable(float64(1+i%7), "")
		}
		for r := 0; r < 20; r++ {
			var terms []lp.Term
			for i := 0; i < n; i += 2 {
				terms = append(terms, lp.Term{Var: vars[(i+r)%n], Coef: float64(1 + (i*r)%5)})
			}
			p.AddConstraint(terms, lp.GE, float64(10+r))
		}
		return p
	}
	for i := 0; i < b.N; i++ {
		sol, err := build().SolveCtx(context.Background(), lp.Options{})
		if err != nil || sol.Status != lp.Optimal {
			b.Fatalf("LP solve failed: %v %v", err, sol.Status)
		}
	}
}

// BenchmarkParallelPipeline measures the level-wise scheduler on a
// 512-process 3-D halo: the same workload mapped fully sequentially
// (Parallelism=1) and with GOMAXPROCS workers (Parallelism=0). Results are
// byte-identical by construction — the benchmark fails if they diverge —
// so the only difference is Phase 2 + Phase 3 wall time, reported as
// phase23-ms. On a multi-core host the parallel variant is expected to be
// >=2x faster; on a single-CPU host the two variants coincide.
func BenchmarkParallelPipeline(b *testing.B) {
	w := Halo3D(8, 8, 8, 10) // 512 processes
	t := NewTorus(4, 4, 8)   // 128 nodes, concentration 4
	var mu sync.Mutex
	mcls := map[string]float64{}
	for _, bc := range []struct {
		name string
		par  int
	}{
		{"parallelism=1", 1},
		{"parallelism=GOMAXPROCS", 0},
	} {
		b.Run(bc.name, func(b *testing.B) {
			m := Mapper{Parallelism: bc.par}
			var phase23, mcl float64
			for i := 0; i < b.N; i++ {
				res, err := pipelineResult(context.Background(), m, w, t, 4)
				if err != nil {
					b.Fatal(err)
				}
				phase23 = float64((res.Stats.MapTime + res.Stats.MergeTime).Milliseconds())
				mcl = res.MCL
			}
			b.ReportMetric(phase23, "phase23-ms")
			b.ReportMetric(mcl, "MCL")
			mu.Lock()
			mcls[bc.name] = mcl
			mu.Unlock()
		})
	}
	if seq, ok := mcls["parallelism=1"]; ok {
		if par, ok := mcls["parallelism=GOMAXPROCS"]; ok && par != seq {
			b.Fatalf("parallel MCL %v != sequential MCL %v", par, seq)
		}
	}
}

// BenchmarkPipelineTelemetry compares the pipeline with no observer (the
// always-on counters alone — the ≤2% overhead budget of DESIGN.md §8)
// against a full telemetry stack (span recorder + progress tracker + tee)
// on the context's scope.
// Compare phase23-ms between the variants.
func BenchmarkPipelineTelemetry(b *testing.B) {
	w := Halo3D(8, 8, 8, 10) // 512 processes
	t := NewTorus(4, 4, 8)   // 128 nodes, concentration 4
	for _, bc := range []struct {
		name string
		obs  func() Observer
	}{
		{"observer=nop", func() Observer { return nil }},
		{"observer=full", func() Observer {
			return TeeObservers(NewSpanRecorder(), NewProgressTracker())
		}},
	} {
		b.Run(bc.name, func(b *testing.B) {
			var phase23 float64
			for i := 0; i < b.N; i++ {
				res, err := pipelineResult(WithScope(context.Background(), &Scope{Observer: bc.obs()}), Mapper{}, w, t, 4)
				if err != nil {
					b.Fatal(err)
				}
				phase23 = float64((res.Stats.MapTime + res.Stats.MergeTime).Milliseconds())
			}
			b.ReportMetric(phase23, "phase23-ms")
		})
	}
}

// BenchmarkRequestScopedTelemetry measures the cost of per-request metric
// attribution: the same solve with and without a telemetry scope on the
// context. The contract (DESIGN.md §8 and §13) is that attribution stays
// within the 2% telemetry budget — the batched flush sites make a scope
// one pointer comparison per flush, never per-iteration work, and the
// scope's registry is touched once per batch rather than once per route.
// BENCH_9.txt holds a committed comparison of the two variants.
func BenchmarkRequestScopedTelemetry(b *testing.B) {
	req := Request{
		Work:        Halo3D(8, 8, 8, 10), // 512 processes
		Torus:       NewTorus(4, 4, 8),   // 128 nodes, concentration 4
		Conc:        4,
		Parallelism: 4,
	}
	b.Run("scope=off", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := Solve(context.Background(), req); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("scope=on", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			ctx := WithScope(context.Background(), NewScope(""))
			res, err := Solve(ctx, req)
			if err != nil {
				b.Fatal(err)
			}
			if len(res.Metrics) == 0 {
				b.Fatal("scoped solve attributed no metrics")
			}
		}
	})
}
