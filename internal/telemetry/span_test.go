package telemetry

import (
	"bufio"
	"bytes"
	"encoding/json"
	"strings"
	"sync"
	"testing"
	"time"
)

// job is a scheduler-job span of the given kind.
func job(name, phase string, worker, level int, hash uint64, dur time.Duration) Span {
	return Span{Name: name, Phase: phase, Worker: worker, Level: level, Hash: hash, Dur: dur}
}

// envelope is a phase envelope span.
func envelope(phase string, dur time.Duration) Span {
	return Span{Name: "phase", Phase: phase, Worker: -1, Level: -1, Dur: dur}
}

// record feeds a recorder a deterministic two-phase timeline through the
// observer interface, with explicit start times so coverage is exact.
func record(t *testing.T) *Recorder {
	t.Helper()
	r := NewRecorder()
	at := func(ms int) time.Time { return r.epoch.Add(time.Duration(ms) * time.Millisecond) }
	// Phase envelope [0, 100); job spans [0,40) w0, [20,90) w1, [40,100) coord.
	r.Record(job("solve", PhaseMap, 0, 2, 0xabc, 40*time.Millisecond), at(0))
	r.Record(job("solve", PhaseMap, 1, 2, 0xdef, 70*time.Millisecond), at(20))
	r.Record(job("fanout", PhaseMap, -1, 2, 0, 60*time.Millisecond), at(40))
	r.Record(envelope(PhaseMap, 100*time.Millisecond), at(0))
	return r
}

func TestRecorderPhaseEnvelope(t *testing.T) {
	r := record(t)
	env, ok := r.PhaseSpan(PhaseMap)
	if !ok {
		t.Fatal("phase envelope missing")
	}
	if env.Worker != -1 || env.Level != -1 || env.Dur != 100*time.Millisecond {
		t.Fatalf("bad envelope: %+v", env)
	}
	if env.Start != 0 {
		t.Fatalf("envelope start = %v, want 0", env.Start)
	}
	if r.Len() != 4 {
		t.Fatalf("Len = %d, want 4", r.Len())
	}
}

func TestPhaseCoverage(t *testing.T) {
	r := record(t)
	// Union of [0,40), [20,90), [40,100) covers the full [0,100) envelope.
	if got := r.PhaseCoverage(PhaseMap); got < 0.999 || got > 1.001 {
		t.Fatalf("coverage = %v, want 1.0", got)
	}
	if got := r.PhaseCoverage(PhaseMerge); got != 0 {
		t.Fatalf("unrecorded phase coverage = %v, want 0", got)
	}
}

func TestPhaseCoverageGaps(t *testing.T) {
	r := NewRecorder()
	epoch := r.epoch
	r.Record(job("merge", PhaseMerge, 0, 1, 0, 30*time.Millisecond), epoch)
	r.Record(job("merge", PhaseMerge, 1, 1, 0, 20*time.Millisecond), epoch.Add(60*time.Millisecond))
	r.Record(envelope(PhaseMerge, 100*time.Millisecond), epoch)
	// [0,30) + [60,80) = 50ms of 100ms.
	if got := r.PhaseCoverage(PhaseMerge); got < 0.499 || got > 0.501 {
		t.Fatalf("coverage = %v, want 0.5", got)
	}
}

func TestWriteJSONL(t *testing.T) {
	r := record(t)
	var buf bytes.Buffer
	if err := r.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	var spans []Span
	sc := bufio.NewScanner(&buf)
	for sc.Scan() {
		var s Span
		if err := json.Unmarshal(sc.Bytes(), &s); err != nil {
			t.Fatalf("bad JSONL line %q: %v", sc.Text(), err)
		}
		spans = append(spans, s)
	}
	if len(spans) != 4 {
		t.Fatalf("got %d spans", len(spans))
	}
	for i := 1; i < len(spans); i++ {
		if spans[i].Start < spans[i-1].Start {
			t.Fatal("JSONL spans must be sorted by start")
		}
	}
}

func TestWriteChromeTrace(t *testing.T) {
	r := record(t)
	var buf bytes.Buffer
	if err := r.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var trace struct {
		TraceEvents []map[string]interface{} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &trace); err != nil {
		t.Fatalf("trace not valid JSON: %v", err)
	}
	var complete, meta int
	tids := map[float64]bool{}
	for _, ev := range trace.TraceEvents {
		switch ev["ph"] {
		case "X":
			complete++
			tids[ev["tid"].(float64)] = true
		case "M":
			meta++
		}
	}
	if complete != 4 {
		t.Fatalf("%d complete events, want 4", complete)
	}
	// workers 0,1 -> tids 1,2; coordinator (-1) and phase envelope -> tid 0.
	for _, tid := range []float64{0, 1, 2} {
		if !tids[tid] {
			t.Fatalf("missing tid %v in %v", tid, tids)
		}
	}
	if meta < 4 { // process_name + 3 thread names
		t.Fatalf("%d metadata events, want >= 4", meta)
	}
	if !strings.Contains(buf.String(), "0xdef") {
		t.Fatal("structural hash missing from trace args")
	}
}

func TestRecorderConcurrent(t *testing.T) {
	r := NewRecorder()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				r.Record(job("solve", PhaseMap, g, i%3, uint64(i), time.Microsecond), time.Now())
			}
		}(g)
	}
	wg.Wait()
	if r.Len() != 800 {
		t.Fatalf("lost spans: %d/800", r.Len())
	}
}
