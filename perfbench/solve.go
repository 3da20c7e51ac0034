package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"sort"
	"time"

	"rahtm"
)

// solveSpec is one instance of the round-robin solve workload, as a daemon
// would receive it on the wire.
type solveSpec struct {
	name string
	wire rahtm.Request
}

// haloWorkload names the one solve workload.
const haloWorkload = "solve-halo-4k"

var haloSpecs = []solveSpec{
	{"halo2d", rahtm.Request{Workload: "halo2d", Grid: []int{64, 64}, Topo: []int{4, 4, 4, 4}, Conc: 16, Parallelism: 1}},
	{"halo3d", rahtm.Request{Workload: "halo3d", Grid: []int{16, 16, 16}, Topo: []int{4, 4, 4, 4}, Conc: 16, Parallelism: 1}},
}

// crossKeys are the counters whose per-solve deltas must repeat exactly:
// between repeats of an instance, and between the untraced pass's
// process-wide deltas and the traced pass's scoped Result.Metrics.
var crossKeys = []string{
	"routing.stencil.hits", "merge.beam.candidates", "merge.beam.kept", "merge.symmetry.evals",
	"anneal.moves", "core.subproblems", "core.subproblems.reused", "core.merges", "core.merges.reused",
}

// instance is a generated, frozen solve instance with its reference MCL.
type instance struct {
	solveSpec
	work       *rahtm.Workload
	torus      *rahtm.Torus
	body       []byte // JSON of wire
	defaultMCL float64
	genMS      float64
	freezeMS   float64
}

func (in *instance) request() rahtm.Request {
	return rahtm.Request{Work: in.work, Torus: in.torus, Conc: in.wire.Conc, Parallelism: 1}
}

// setUpSolve generates and freezes every instance from its wire form and
// computes its default-order reference MCL.
func setUpSolve(ctx context.Context, specs []solveSpec) ([]*instance, error) {
	out := make([]*instance, 0, len(specs))
	for _, s := range specs {
		in := &instance{solveSpec: s}
		wire := s.wire // Materialize memoizes; a copy generates afresh
		t0 := time.Now()
		w, t, err := wire.Materialize()
		if err != nil {
			return nil, fmt.Errorf("%s: %w", s.name, err)
		}
		in.work, in.torus = w, t
		t1 := time.Now()
		w.Graph.Freeze()
		in.freezeMS = ms(time.Since(t1))
		in.genMS = ms(t1.Sub(t0))

		ref := in.request()
		ref.Mapper = "default"
		res, err := rahtm.Solve(ctx, ref)
		if err != nil {
			return nil, fmt.Errorf("%s: default mapping: %w", s.name, err)
		}
		in.defaultMCL = res.MCL
		if in.body, err = json.Marshal(s.wire); err != nil {
			return nil, err
		}
		out = append(out, in)
	}
	return out, nil
}

// solveOp is one Solve call of a timed or traced pass.
type solveOp struct {
	in     *instance
	lat    time.Duration
	res    *rahtm.Result
	err    error
	counts map[string]int64 // process-wide counter deltas over the call
	spans  []rahtm.Span     // traced pass only
}

// solveOnce runs one instance. A traced call gets a fresh span recorder as
// its observer and a fresh scope on its context, as a daemon request would.
func solveOnce(ctx context.Context, in *instance, traced bool) solveOp {
	req := in.request()
	var rec *rahtm.SpanRecorder
	if traced {
		rec = rahtm.NewSpanRecorder()
		req.Observer = rec
		ctx = rahtm.WithScope(ctx, rahtm.NewScope(""))
	}
	before := rahtm.Metrics()
	start := time.Now()
	res, err := rahtm.Solve(ctx, req)
	op := solveOp{in: in, lat: time.Since(start), res: res, err: err}
	op.counts = rahtm.Metrics().Sub(before).Counters
	if rec != nil {
		op.spans = rec.Spans()
	}
	return op
}

// solveRefUnits is how many reference-kernel units a speed sample runs
// before each solve: about 1% of the time of a 4k solve.
const solveRefUnits = 10

// solvePass runs whole rounds over order until the next round would end
// past budget (always at least one round, at most maxRounds when > 0),
// with a speed sample from probe, if any, before every solve and after the
// last. It returns the ops, one stretch per round, and the pass's cost. A
// round's wall and CPU time are its solves', without the samples.
func solvePass(ctx context.Context, order []*instance, budget time.Duration, maxRounds int, traced bool, probe *speedProbe) ([]solveOp, []stretch, phaseUsage) {
	var ops []solveOp
	var rounds []stretch
	settle()
	u0 := readUsage()
	for round := 1; ; round++ {
		var r stretch
		for _, in := range order {
			probe.sample()
			s0, cpu := time.Now(), processCPU()
			ops = append(ops, solveOnce(ctx, in, traced))
			r.wall += time.Since(s0)
			r.cpu += processCPU() - cpu
			r.ops++
		}
		rounds = append(rounds, r)
		last := r.wall
		if maxRounds > 0 && round >= maxRounds || time.Since(u0.wall)+last > budget {
			break
		}
	}
	probe.sample()
	return ops, rounds, u0.to(readUsage())
}

// runSolve is a round-robin solve workload.
func runSolve(ctx context.Context, rep *report, cfg config, processStart time.Time) error {
	rep.gate = newGate("error", "placement", "mcl_exact", "repeatable", "lp_milp_zero")
	if cfg.traced {
		rep.gate = newGate("error", "placement", "mcl_exact", "repeatable", "trace_counts", "lp_milp_zero")
	}
	// The probe comes first, so its memory is resident for the whole run
	// and peak_rss_mb can leave it out exactly.
	probe, err := newSpeedProbe(1, solveRefUnits) // the solves run at Parallelism 1
	if err != nil {
		return err
	}
	defer probe.free()
	var insts []*instance
	var setups, builds []float64
	for moreSetups(setups) {
		probe.sampleEvery(setupSampleEvery)
		settle()
		b0 := rahtm.Metrics().Counter("graph.build")
		t0 := time.Now()
		var err error
		if insts, err = setUpSolve(ctx, haloSpecs); err != nil {
			return err
		}
		setups = append(setups, time.Since(t0).Seconds())
		builds = append(builds, float64(rahtm.Metrics().Counter("graph.build")-b0))
	}
	// The seed picks where the round-robin starts. The instances are the
	// paper's fixed patterns, so every seed does the same work.
	order := make([]*instance, len(insts))
	for i := range insts {
		order[i] = insts[(i+int(cfg.seed%int64(len(insts)))+len(insts))%len(insts)]
	}
	probe.sample()
	setupSpeed := probe.take()
	reportSetup(rep, setups, processStart)

	// A traced run times one untraced round, the traced round, and, while
	// --seconds allows, one more untraced round, so that warm-up does not
	// bias trace.overhead_pct.
	budget := time.Duration(cfg.seconds) * time.Second
	var ops, traced []solveOp
	var rounds []stretch
	var use, tuse phaseUsage
	if cfg.traced {
		start := time.Now()
		ops, rounds, use = solvePass(ctx, order, budget, 1, false, probe)
		traced, _, tuse = solvePass(ctx, order, budget, 1, true, nil)
		if time.Since(start) < budget {
			more, mrounds, muse := solvePass(ctx, order, budget, 1, false, probe)
			ops, rounds, use = append(ops, more...), append(rounds, mrounds...), use.add(muse)
		}
	} else {
		ops, rounds, use = solvePass(ctx, order, budget, 0, false, probe)
	}
	peak := peakRSSMB()
	reportHost(rep, "timed pass", use)

	first := map[*instance]solveOp{}
	mclEval := map[string][]float64{}
	lat := map[string][]float64{}
	for _, op := range ops {
		name := op.in.name
		fails, evalMS := checkSolve(op)
		if f, ok := first[op.in]; !ok {
			first[op.in] = op
		} else if op.err == nil && f.err == nil &&
			(!sameCounts(f.counts, op.counts) || math.Float64bits(f.res.MCL) != math.Float64bits(op.res.MCL)) {
			fails = append(fails, "repeatable")
		}
		rep.gate.record(fails...)
		mclEval[name] = append(mclEval[name], evalMS)
		lat[name] = append(lat[name], ms(op.lat))
	}
	tlat := map[string][]float64{}
	for _, op := range traced {
		fails, evalMS := checkSolve(op)
		if f := first[op.in]; op.err == nil && f.err == nil && !sameCounts(f.counts, op.res.Metrics) {
			fails = append(fails, "trace_counts")
		}
		rep.gate.record(fails...)
		mclEval[op.in.name] = append(mclEval[op.in.name], evalMS)
		tlat[op.in.name] = append(tlat[op.in.name], ms(op.lat))
	}

	p50 := geomeanOfMedians(lat)
	rate, cost := pooledRates(rounds)
	e := rep.endToEnd
	e.set("throughput_ops_s", rate, "ops/s")
	e.note("throughput_ops_s", fmt.Sprintf("over %d rounds", len(rounds)))
	e.set("latency_p50_ms", p50, "ms")
	e.note("latency_p50_ms", fmt.Sprintf("geomean of per-instance medians, %d ops", len(ops)))
	all := make([]float64, 0, len(ops))
	for _, op := range ops {
		all = append(all, ms(op.lat))
	}
	setTail(rep, all)
	e.set("cpu_ms_per_op", cost, "ms")
	e.note("cpu_ms_per_op", fmt.Sprintf("over the same %d rounds", len(rounds)))
	ratios := make([]float64, 0, len(insts))
	for _, in := range insts {
		op, ok := first[in]
		if !ok || op.err != nil {
			continue
		}
		r := op.res.MCL / in.defaultMCL
		ratios = append(ratios, r)
		rep.printf("quality: %-7s rahtm_mcl=%.6g default_mcl=%.6g ratio=%.4f default_fallback=%v (median wall %.1f ms over %d)",
			in.name, op.res.MCL, in.defaultMCL, r, op.res.Stats.DefaultFallback, median(lat[in.name]), len(lat[in.name]))
	}
	probe.report(rep)
	setNorm(e, probe.speed(), probe.cpuSpeed(), median(setups), setupSpeed)
	e.set("mcl_ratio", geomean(ratios), "ratio")
	e.note("mcl_ratio", "exact; geomean over instances of RAHTM MCL / default-order MCL")
	setPeakRSS(e, peak, probe)
	e.set("fail_ratio", rep.gate.failRatio(), "ratio")
	if !cfg.traced {
		return nil
	}
	reportHost(rep, "traced pass", tuse)

	l := rep.layer
	var sum layerSums
	for _, op := range traced {
		if op.err != nil {
			continue
		}
		s := splitSpans(op.spans, op.lat)
		sum.add(op, s)
		in := op.in
		rep.printf("layers: %-7s cluster=%.2fms hiermap=%.1fms merge=%.1fms core_self=%.2fms rahtm_tail=%.2fms coverage=%.5f gen=%.2fms freeze=%.2fms mcl_eval=%.2fms",
			in.name, s.clusterMS, s.hiermapMS, s.mergeMS, s.coreSelfMS, s.tailMS, s.coverageMin,
			in.genMS, in.freezeMS, median(mclEval[in.name]))
		rep.printf("counts: %-7s %s", in.name, countLine(op.res))
		rep.traces = append(rep.traces, map[string]any{
			"workload": rep.workload, "instance": in.name, "wall_ms": ms(op.lat),
			"metrics": op.res.Metrics, "spans": op.spans,
		})
	}
	sum.setPer(l, 1)
	var gen, freeze, eval float64
	for _, in := range insts {
		gen += in.genMS
		freeze += in.freezeMS
		eval += median(mclEval[in.name])
	}
	every := append(append([]solveOp(nil), ops...), traced...)
	l.set("routing.mcl_eval_ms", eval, "ms")
	l.set("routing.stencil_builds", float64(totalCount(every, "routing.stencil.builds")), "count")
	l.set("workload.gen_ms", gen, "ms")
	l.set("graph.freeze_ms", freeze, "ms")
	l.set("graph.builds", median(builds), "count")
	var wire [4]float64 // per round: the sum over instances of each one's medians
	for _, op := range traced {
		if op.err != nil {
			continue
		}
		var w wireSamples
		for r := 0; r < wireReps; r++ {
			if err := w.add(op.in.body, op.res); err != nil {
				return err
			}
		}
		for i, v := range w.medians() {
			wire[i] += v
		}
	}
	for i, v := range wire {
		l.set(wireNames[i], v, "ms")
	}
	bypassServe(l)
	l.set("lp.pivots", float64(totalCount(every, "lp.pivots")), "count")
	l.set("milp.nodes", float64(totalCount(every, "milp.nodes")), "count")
	setGC(l, use, len(ops))
	l.set("trace.overhead_pct", 100*(geomeanOfMedians(tlat)/p50-1), "%")
	l.note("trace.overhead_pct", "traced round vs the untraced rounds; noisy")
	l.set("host.steal_pct", use.stealPct(), "%")
	l.set("host.speed", probe.speed(), "ratio")
	l.set("host.cpu_speed", probe.cpuSpeed(), "ratio")
	return nil
}

// bypassServe sets the daemon's metrics to 0 on a workload without one.
func bypassServe(l *metrics) {
	for _, m := range []struct{ name, unit string }{
		{"serve.hit_p50_ms", "ms"}, {"serve.cold_p50_ms", "ms"}, {"serve.baseline_p50_ms", "ms"},
		{"serve.degraded_p50_ms", "ms"}, {"serve.queue_ms", "ms"}, {"serve.solve_ms", "ms"},
		{"serve.overhead_ms", "ms"}, {"serve.cache_hit_ratio", "ratio"}, {"serve.degraded_ratio", "ratio"},
		{"serve.rejected", "count"},
	} {
		l.set(m.name, 0, m.unit)
		l.note(m.name, "bypassed: no daemon on this workload")
	}
}

// checkSolve runs the correctness gate on one op and returns the checks it
// failed and how long the MCL recomputation took.
func checkSolve(op solveOp) (fails []string, evalMS float64) {
	if op.err != nil {
		return []string{"error"}, 0
	}
	in, res := op.in, op.res
	if !placementOK(res.Mapping, in.work.Procs(), in.torus.N(), in.wire.Conc) {
		fails = append(fails, "placement")
	}
	t0 := time.Now()
	mcl := rahtm.MCL(in.torus, in.work.Graph, res.Mapping)
	evalMS = ms(time.Since(t0))
	if math.Float64bits(mcl) != math.Float64bits(res.MCL) {
		fails = append(fails, "mcl_exact")
	}
	if op.counts["lp.pivots"] != 0 || op.counts["milp.nodes"] != 0 {
		fails = append(fails, "lp_milp_zero")
	}
	return fails, evalMS
}

// placementOK reports whether m places procs processes on nodes nodes with
// exactly conc processes on every node.
func placementOK(m rahtm.Mapping, procs, nodes, conc int) bool {
	if len(m) != procs {
		return false
	}
	per := make([]int, nodes)
	for _, n := range m {
		if n < 0 || n >= nodes {
			return false
		}
		per[n]++
	}
	for _, c := range per {
		if c != conc {
			return false
		}
	}
	return true
}

// sameCounts reports whether two solves' counter deltas agree on every
// crossKeys counter.
func sameCounts(a, b map[string]int64) bool {
	for _, k := range crossKeys {
		if a[k] != b[k] {
			return false
		}
	}
	return true
}

func totalCount(ops []solveOp, key string) int64 {
	var n int64
	for _, op := range ops {
		n += op.counts[key]
	}
	return n
}

func countLine(res *rahtm.Result) string {
	keys := make([]string, 0, len(res.Metrics))
	for k := range res.Metrics {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	s := ""
	for _, k := range keys {
		s += fmt.Sprintf(" %s=%d", k, res.Metrics[k])
	}
	return s
}

// layerSplit is one traced solve's time split by layer, from its spans.
type layerSplit struct {
	clusterMS, hiermapMS, mergeMS, coreSelfMS, tailMS float64
	coverageMin                                       float64
}

// splitSpans attributes a traced solve's wall time to layers: the cluster
// phase envelope; the map phase's "solve" spans (hiermap) and the merge
// phase's "merge" spans (merge); core's own prepare, fan-out and leaves
// spans plus phase time no job span covers; and rahtm's tail, the Solve
// wall time outside every phase (request materialization, MCL and
// hop-bytes evaluation).
func splitSpans(spans []rahtm.Span, wall time.Duration) layerSplit {
	s := layerSplit{coverageMin: 1}
	var phases time.Duration
	for _, env := range spans {
		if env.Name != "phase" {
			continue
		}
		phases += env.Dur
		if env.Phase == rahtm.PhaseCluster {
			s.clusterMS += ms(env.Dur)
			continue
		}
		var kids []interval
		for _, sp := range spans {
			if sp.Name == "phase" || sp.Phase != env.Phase {
				continue
			}
			kids = append(kids, interval{sp.Start, sp.End()})
			switch {
			case sp.Name == "solve" && sp.Phase == rahtm.PhaseMap:
				s.hiermapMS += ms(sp.Dur)
			case sp.Name == "merge" && sp.Phase == rahtm.PhaseMerge:
				s.mergeMS += ms(sp.Dur)
			default:
				s.coreSelfMS += ms(sp.Dur)
			}
		}
		parent := interval{env.Start, env.End()}
		s.coreSelfMS += ms(selfTime(parent, kids))
		s.coverageMin = min(s.coverageMin, coverage(parent, kids))
	}
	s.tailMS = ms(wall - phases)
	return s
}

// layerSums accumulates per-solve layer metrics into per-round totals
// (counts and busy times) and pooled ratios.
type layerSums struct {
	solves                                  int
	clusterMS, hiermapMS, mergeMS, selfMS   float64
	tailMS, coverageMin                     float64
	leafSolves, stencilHits, moves, accepts float64
	candidates, kept, symmetry              float64
	deltaHits, deltaFallbacks               float64
	subproblems, subHits, merges, mergeHits float64
	fallbacks                               float64
}

func (a *layerSums) add(op solveOp, s layerSplit) {
	a.addStats(op.res)
	a.clusterMS += s.clusterMS
	a.hiermapMS += s.hiermapMS
	a.mergeMS += s.mergeMS
	a.selfMS += s.coreSelfMS
	a.tailMS += s.tailMS
	if a.solves == 1 || s.coverageMin < a.coverageMin {
		a.coverageMin = s.coverageMin
	}
}

// addStats adds one RAHTM result's Stats and scoped counters.
func (a *layerSums) addStats(res *rahtm.Result) {
	a.solves++
	m, st := res.Metrics, res.Stats
	a.leafSolves += float64(st.Subproblems - st.SubproblemsHit)
	a.stencilHits += float64(m["routing.stencil.hits"])
	a.moves += float64(m["anneal.moves"])
	a.accepts += float64(m["anneal.accepted"])
	a.candidates += float64(m["merge.beam.candidates"])
	a.kept += float64(m["merge.beam.kept"])
	a.symmetry += float64(m["merge.symmetry.evals"])
	a.deltaHits += float64(m["merge.delta.hits"])
	a.deltaFallbacks += float64(m["merge.delta.fallbacks"])
	a.subproblems += float64(st.Subproblems)
	a.subHits += float64(st.SubproblemsHit)
	a.merges += float64(st.Merges)
	a.mergeHits += float64(st.MergesHit)
	if st.DefaultFallback {
		a.fallbacks++
	}
}

// setPer writes the sums as per-layer metrics, each count and busy time
// divided by per (1 for a per-round total over the instances).
func (a *layerSums) setPer(l *metrics, per float64) {
	l.set("hiermap.busy_ms", a.hiermapMS/per, "ms")
	l.set("hiermap.solves", a.leafSolves/per, "count")
	l.set("routing.stencil_hits", a.stencilHits/per, "count")
	l.set("hiermap.anneal_moves", a.moves/per, "count")
	l.set("hiermap.anneal_accept_ratio", ratio(a.accepts, a.moves), "ratio")
	l.set("merge.busy_ms", a.mergeMS/per, "ms")
	l.set("merge.candidates", a.candidates/per, "count")
	l.set("merge.kept_ratio", ratio(a.kept, a.candidates), "ratio")
	l.set("merge.symmetry_evals", a.symmetry/per, "count")
	l.set("merge.dense_ratio", ratio(a.deltaFallbacks, a.deltaHits+a.deltaFallbacks), "ratio")
	l.set("cluster.busy_ms", a.clusterMS/per, "ms")
	l.set("core.self_ms", a.selfMS/per, "ms")
	l.set("rahtm.tail_ms", a.tailMS/per, "ms")
	l.set("core.subproblem_reuse_ratio", ratio(a.subHits, a.subproblems), "ratio")
	l.set("core.merge_reuse_ratio", ratio(a.mergeHits, a.merges), "ratio")
	l.set("core.fallback_ratio", ratio(a.fallbacks, float64(a.solves)), "ratio")
	l.set("trace.coverage_min", a.coverageMin, "ratio")
}

func setGC(l *metrics, use phaseUsage, ops int) {
	l.set("gc.cycles_per_op", ratio(float64(use.gcCycles), float64(ops)), "count")
	l.set("gc.alloc_mb_per_op", ratio(float64(use.allocBytes)/(1<<20), float64(ops)), "MB")
}

// setTail sets latency_tail_ms when the sample supports one; it is printed
// but not declared in BENCHMARK.json, since a round-robin run of the 4k
// instances never has more than ten samples.
func setTail(rep *report, lats []float64) {
	pct, v, ok := tail(lats)
	if !ok {
		rep.printf("latency_tail_ms: n/a (%d samples; a tail needs more than %d)", len(lats), tailBeyond)
		return
	}
	rep.endToEnd.set("latency_tail_ms", v, "ms")
	rep.endToEnd.note("latency_tail_ms", fmt.Sprintf("p%.3f of %d samples", pct, len(lats)))
}

// reportSetup prints the spread of the set-up repetitions and how long the
// process ran before its first timed op.
func reportSetup(rep *report, setups []float64, processStart time.Time) {
	s := sorted(setups)
	rep.printf("set-up: %d repetitions, min %.4f median %.4f max %.4f s; first timed op %.3f s after process start",
		len(s), s[0], median(s), s[len(s)-1], time.Since(processStart).Seconds())
}

func reportHost(rep *report, phase string, u phaseUsage) {
	rep.printf("host: %s wall=%.2fs cpu=%.2fs cpu_share=%.3f cores steal=%.2f%% gc=%d",
		phase, u.wall.Seconds(), u.cpu.Seconds(), u.cpuShare(), u.stealPct(), u.gcCycles)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
