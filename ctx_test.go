package rahtm

import (
	"context"
	"errors"
	"runtime"
	"strings"
	"testing"
	"time"

	"rahtm/internal/sched"
)

func TestPipelineCtxAlreadyCanceled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	w := Halo2D(8, 8, 10)
	tp := NewTorus(4, 4, 4)
	start := time.Now()
	_, err := pipelineResult(ctx, Mapper{}, w, tp, 1)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Fatalf("canceled pipeline still took %v", elapsed)
	}
}

func TestPipelineCtxDeadlineDegrades(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	w, err := CG(64)
	if err != nil {
		t.Fatal(err)
	}
	tp := NewTorus(4, 4, 4)
	res, err := pipelineResult(ctx, Mapper{}, w, tp, 1)
	if err != nil {
		t.Fatalf("expired deadline must degrade, not fail: %v", err)
	}
	if err := res.NodeMapping.Validate(tp.N(), true); err != nil {
		t.Fatalf("degraded mapping invalid: %v", err)
	}
	if len(res.ProcToNode) != w.Procs() {
		t.Fatalf("got %d proc assignments, want %d", len(res.ProcToNode), w.Procs())
	}
	// The full run takes seconds on this configuration (see
	// TestPipelineObserverPhases's larger sibling), so a 20ms budget cannot
	// have completed the full search.
	if !res.Stats.Degraded {
		t.Fatal("Stats.Degraded not set after deadline expiry")
	}
}

// lateTimerCtx is a context whose deadline has passed but whose timer has
// not fired yet, as on a loaded host: Err is nil and Done never closes.
type lateTimerCtx struct {
	context.Context
	done chan struct{}
}

func (c lateTimerCtx) Deadline() (time.Time, bool) { return time.Now().Add(-time.Second), true }
func (c lateTimerCtx) Done() <-chan struct{}       { return c.done }
func (c lateTimerCtx) Err() error                  { return nil }

func TestSolveLateTimerDegrades(t *testing.T) {
	// A solve that finishes before its deadline's timer fires must still
	// report the overrun.
	ctx := lateTimerCtx{Context: context.Background(), done: make(chan struct{})}
	res, err := Solve(ctx, Request{Workload: "CG", Topo: []int{4, 4, 4}, Conc: 4})
	if err != nil {
		t.Fatalf("deadline must degrade, not fail: %v", err)
	}
	if !res.Degraded {
		t.Fatal("Degraded not set")
	}
	if err := res.Mapping.Validate(64, false); err != nil {
		t.Fatalf("degraded mapping invalid: %v", err)
	}
}

func TestPipelineCtxCancelMidRun(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	w, err := CG(64)
	if err != nil {
		t.Fatal(err)
	}
	tp := NewTorus(4, 4, 4)
	errc := make(chan error, 1)
	go func() {
		_, err := pipelineResult(ctx, Mapper{}, w, tp, 1)
		errc <- err
	}()
	time.Sleep(20 * time.Millisecond)
	cancel()
	select {
	case err := <-errc:
		// Either the run was canceled mid-flight, or (rarely, on a fast
		// machine) it completed before the cancel landed.
		if err != nil && !errors.Is(err, context.Canceled) {
			t.Fatalf("err = %v, want context.Canceled or nil", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("pipeline did not return within 10s of cancellation")
	}
}

func TestPipelineObserverPhases(t *testing.T) {
	rec := NewSpanRecorder()
	w := Halo2D(4, 4, 10)
	tp := NewTorus(4, 4)
	ctx := WithScope(context.Background(), &Scope{Observer: rec})
	res, err := pipelineResult(ctx, Mapper{}, w, tp, 1)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Degraded {
		t.Fatal("unbudgeted run must not be degraded")
	}
	kinds := map[string]int{}
	for _, sp := range rec.Spans() {
		kinds[sp.Name]++
	}
	for _, phase := range []string{PhaseCluster, PhaseMap, PhaseMerge} {
		if _, ok := rec.PhaseSpan(phase); !ok {
			t.Fatalf("no %q envelope; span kinds %v", phase, kinds)
		}
	}
	if kinds["solve"] == 0 || kinds["fanout"] == 0 {
		t.Fatalf("no solve/fanout spans: %v", kinds)
	}
	if kinds["merge"] == 0 {
		t.Fatalf("no merge spans: %v", kinds)
	}
}

func TestLogObserverWrites(t *testing.T) {
	var sb strings.Builder
	w := Halo2D(4, 4, 10)
	tp := NewTorus(4, 4)
	if _, err := Solve(context.Background(), Request{Work: w, Torus: tp, Observer: NewLogObserver(&sb)}); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"phase cluster done in", "phase map done in", "phase merge done in", "map solve level 0 worker 0 mcl"} {
		if !strings.Contains(out, want) {
			t.Fatalf("log output missing %q:\n%s", want, out)
		}
	}
	for _, line := range strings.Split(strings.TrimSpace(out), "\n") {
		if !strings.HasPrefix(line, "rahtm: ") {
			t.Fatalf("line %q missing prefix", line)
		}
	}
}

func TestCompareCtxCanceled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	w := Halo2D(4, 4, 10)
	tp := NewTorus(4, 4)
	_, err := CompareCtx(ctx, w, tp, 1, StandardMappers(tp), Model{})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// ctxRecordingMapper is a CtxProcMapper that records the context it is
// handed and maps like the machine default.
type ctxRecordingMapper struct{ got *context.Context }

func (ctxRecordingMapper) Name() string { return "ctx-recorder" }

func (ctxRecordingMapper) MapProcs(*Workload, *Torus, int) (Mapping, error) {
	return nil, errors.New("ctx-recorder: MapProcs called instead of MapProcsCtx")
}

func (m ctxRecordingMapper) MapProcsCtx(ctx context.Context, w *Workload, t *Torus, conc int) (Mapping, error) {
	*m.got = ctx
	return DefaultMapper(t).MapProcs(w, t, conc)
}

// TestCompareCtxPassesContext pins that CompareCtx hands its ctx on: RAHTM's
// leaf solves report to the recorder on the ctx's scope, and a registered
// CtxProcMapper receives the comparison's very ctx.
func TestCompareCtxPassesContext(t *testing.T) {
	var got context.Context
	RegisterMapper("ctx-recorder-test", func(*Torus) ProcMapper { return ctxRecordingMapper{got: &got} })
	f, err := MapperByName("ctx-recorder-test")
	if err != nil {
		t.Fatal(err)
	}
	rec := NewSpanRecorder()
	ctx := WithScope(context.Background(), &Scope{Observer: rec})
	w := Halo2D(4, 4, 10)
	tp := NewTorus(4, 4)
	cmp, err := CompareCtx(ctx, w, tp, 1, []ProcMapper{DefaultMapper(tp), Mapper{}, f(tp)}, Model{})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range cmp.Rows {
		if r.Err != "" {
			t.Fatalf("%s failed: %s", r.Mapper, r.Err)
		}
	}
	solves := 0
	for _, sp := range rec.Spans() {
		if sp.Name == "solve" {
			solves++
		}
	}
	if solves == 0 {
		t.Fatal("RAHTM ran without the comparison's scope: no solve spans recorded")
	}
	if got != ctx {
		t.Fatalf("registered CtxProcMapper received %v, want the comparison's ctx", got)
	}
}

func TestStandardPermutationsDeduped(t *testing.T) {
	for _, tc := range []struct {
		topo *Torus
		want []string
	}{
		{NewTorus(8), []string{"AT", "TA"}},
		{NewTorus(4, 4), []string{"ABT", "TAB"}},
		{NewTorus(4, 4, 4), []string{"ABCT", "TABC", "ACBT"}},
	} {
		ps := StandardPermutations(tc.topo)
		if len(ps) != len(tc.want) {
			t.Fatalf("%v: got %d permutations, want %v", tc.topo, len(ps), tc.want)
		}
		for i, p := range ps {
			if p.Name() != tc.want[i] {
				t.Fatalf("%v: permutation %d = %q, want %q", tc.topo, i, p.Name(), tc.want[i])
			}
		}
	}
}

func containsStr(xs []string, want string) bool {
	for _, x := range xs {
		if x == want {
			return true
		}
	}
	return false
}

// panicObserver panics on every level-1 solve span. Phase 2 emits those
// spans from the pipeline's worker goroutines.
type panicObserver struct{}

func (panicObserver) Record(sp Span, _ time.Time) {
	if sp.Name == "solve" && sp.Level == 1 {
		panic("observer panic on solve")
	}
}

// TestSolveWorkerPanicRecovered pins that a panic inside the pipeline's
// own workers reaches Solve's caller, where a deferred recover sees the
// worker's value and stack, and that no worker outlives it.
func TestSolveWorkerPanicRecovered(t *testing.T) {
	before := runtime.NumGoroutine()
	req := Request{Work: RandomNeighbors(256, 4, 10, 3), Torus: NewTorus(8, 8), Conc: 4,
		Config: &Mapper{Parallelism: 4}, Observer: panicObserver{}}
	var got any
	func() {
		defer func() { got = recover() }()
		_, err := Solve(context.Background(), req)
		t.Errorf("Solve returned (err %v) instead of panicking", err)
	}()
	p, ok := got.(*sched.Panic)
	if !ok {
		t.Fatalf("recovered %T %v, want a worker's *sched.Panic", got, got)
	}
	if p.Value != "observer panic on solve" {
		t.Errorf("Panic.Value = %v", p.Value)
	}
	if s := string(p.Stack); !strings.Contains(s, "panicObserver.Record") || !strings.Contains(s, "sched.Run") {
		t.Errorf("Panic.Stack is not the worker's:\n%s", s)
	}
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > before {
		t.Errorf("%d goroutines after the panic, %d before", n, before)
	}
}
