package telemetry

import (
	"strings"
	"sync"
	"testing"
	"time"
)

// countingObserver counts spans by name; safe for concurrent use.
type countingObserver struct {
	mu     sync.Mutex
	counts map[string]int
	traces map[string]bool
}

func newCountingObserver() *countingObserver {
	return &countingObserver{counts: map[string]int{}, traces: map[string]bool{}}
}

func (c *countingObserver) Record(sp Span, _ time.Time) {
	c.mu.Lock()
	c.counts[sp.Name]++
	c.traces[sp.TraceID] = true
	c.mu.Unlock()
}

func (c *countingObserver) count(name string) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.counts[name]
}

func TestTeeFanOut(t *testing.T) {
	a, b := newCountingObserver(), newCountingObserver()
	o := Tee(nil, a, nil, b)
	for _, name := range []string{"phase", "solve", "merge"} {
		o.Record(Span{Name: name}, time.Now())
	}
	for _, name := range []string{"phase", "solve", "merge"} {
		if a.count(name) != 1 || b.count(name) != 1 {
			t.Fatalf("span %q: a=%d b=%d, want 1/1", name, a.count(name), b.count(name))
		}
	}
}

func TestTeeDegenerateForms(t *testing.T) {
	if Tee() != nil {
		t.Fatal("empty Tee must be nil")
	}
	if Tee(nil, nil) != nil {
		t.Fatal("all-nil Tee must be nil")
	}
	l := NewLog(&strings.Builder{})
	if Tee(nil, l) != Observer(l) {
		t.Fatal("single-member Tee must return the member unchanged")
	}
}

// TestTeeConcurrentEmission hammers a tee from many goroutines; run with
// -race this verifies the fan-out adds no unsynchronized state.
func TestTeeConcurrentEmission(t *testing.T) {
	a, b := newCountingObserver(), newCountingObserver()
	o := Tee(a, b, NewLog(&safeWriter{}), NewRecorder(), NewProgressTracker())
	const goroutines, spans = 8, 200
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < spans; i++ {
				o.Record(Span{Name: "solve", Phase: PhaseMap, Worker: g, Hash: uint64(i)}, time.Now())
			}
		}(g)
	}
	wg.Wait()
	if got := a.count("solve") + b.count("solve"); got != 2*goroutines*spans {
		t.Fatalf("lost spans: %d/%d", got, 2*goroutines*spans)
	}
}

// safeWriter is a mutex-guarded sink (strings.Builder alone is not safe for
// the concurrent Log writes this test provokes).
type safeWriter struct {
	mu sync.Mutex
	sb strings.Builder
}

func (w *safeWriter) Write(p []byte) (int, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.sb.Write(p)
}

func TestLogWritesSpans(t *testing.T) {
	var sb strings.Builder
	l := NewLog(&sb)
	l.Record(Span{Name: "solve", Phase: PhaseMap, Worker: 0, Level: 0, MCL: 4.5, Dur: 724 * time.Millisecond}, time.Now())
	l.Record(Span{Name: "solve", Phase: PhaseMap, Worker: 1, Level: 1, MCL: 4, Proved: true, Dur: time.Millisecond}, time.Now())
	l.Record(Span{Name: "prepare", Phase: PhaseMerge, Worker: -1, Level: 1, Jobs: 3, Dur: time.Millisecond}, time.Now())
	l.Record(Span{Name: "merge", Phase: PhaseMerge, Worker: 0, Level: 0, Barred: true, BarSteps: 2, Dur: 2 * time.Millisecond}, time.Now())
	l.Record(Span{Name: "phase", Phase: PhaseMerge, Worker: -1, Level: -1, Dur: 3 * time.Millisecond}, time.Now())
	want := "rahtm: map solve level 0 worker 0 mcl 4.5 in 724ms\n" +
		"rahtm: map solve level 1 worker 1 mcl 4 proved in 1ms\n" +
		"rahtm: merge prepare level 1 jobs 3 in 1ms\n" +
		"rahtm: merge merge level 0 worker 0 barred after 2 steps in 2ms\n" +
		"rahtm: phase merge done in 3ms\n"
	if got := sb.String(); got != want {
		t.Fatalf("log output:\n%s\nwant:\n%s", got, want)
	}
}

// TestLogZeroValueDiscards pins the discard contract: a Log built with a
// nil writer, a zero Log and a nil *Log all drop spans without panicking.
func TestLogZeroValueDiscards(t *testing.T) {
	var zero Log
	zero.Record(Span{Name: "solve"}, time.Now())
	var nilLog *Log
	nilLog.Record(Span{Name: "phase"}, time.Now())
	NewLog(nil).Record(Span{Name: "merge"}, time.Now())
}

// TestLogConcurrentUse checks that concurrent Records produce whole lines:
// the mutex serializes writes, so no line is torn or lost.
func TestLogConcurrentUse(t *testing.T) {
	w := &safeWriter{}
	l := NewLog(w)
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < 100; j++ {
				l.Record(Span{Name: "merge", Phase: PhaseMerge, Worker: i, Level: j, Dur: time.Microsecond}, time.Now())
			}
		}(i)
	}
	wg.Wait()
	lines := strings.Split(strings.TrimSuffix(w.sb.String(), "\n"), "\n")
	if len(lines) != 800 {
		t.Fatalf("%d lines, want 800", len(lines))
	}
	for _, line := range lines {
		if !strings.HasPrefix(line, "rahtm: merge merge level ") || !strings.HasSuffix(line, " in 1µs") {
			t.Fatalf("torn line %q", line)
		}
	}
}

// TestScopeSpan pins the carrier contract: a nil scope or one without an
// observer drops spans; otherwise the span reaches the observer stamped
// with the scope's trace ID. A scope without a registry leaves counters on
// the fallback.
func TestScopeSpan(t *testing.T) {
	var nilScope *Scope
	nilScope.Span(Span{Name: "solve"}, time.Now())
	(&Scope{TraceID: "x"}).Span(Span{Name: "solve"}, time.Now())

	o := newCountingObserver()
	(&Scope{TraceID: "req1", Reg: NewRegistry(), Observer: o}).Span(Span{Name: "merge", TraceID: "overwritten"}, time.Now())
	if o.count("merge") != 1 || !o.traces["req1"] || len(o.traces) != 1 {
		t.Fatalf("counts %v traces %v", o.counts, o.traces)
	}

	bare := &Scope{Observer: o}
	fallback := NewRegistry().Counter("x")
	if bare.CounterOr("x", fallback) != fallback || bare.Counter("x") != nil {
		t.Fatal("a scope without a registry must leave counters on the fallback")
	}
	if snap := bare.Snapshot(); len(snap.Counters) != 0 {
		t.Fatalf("registry-less snapshot: %+v", snap)
	}
}
