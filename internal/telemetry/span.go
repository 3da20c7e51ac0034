package telemetry

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"sync"
	"time"
)

// Pipeline phase names carried by Span.Phase.
const (
	PhaseCluster = "cluster" // Phase 1: concentration + per-level coarsening
	PhaseMap     = "map"     // Phase 2: top-down cube mapping
	PhaseMerge   = "merge"   // Phase 3: bottom-up beam merging
)

// Span is one completed unit of pipeline work: a whole-phase envelope or
// one job of the level-wise scheduler. It is the pipeline's only trace
// event. Start is the offset from the recording Recorder's epoch (its
// creation time), so exported timelines are self-contained and stable;
// emitters leave it zero and pass the absolute start to Observer.Record.
type Span struct {
	// Name is the span kind: "solve", "merge", "prepare", "leaves",
	// "fanout" for scheduler jobs, or "phase" for whole-phase envelopes.
	Name string `json:"name"`
	// Phase is the pipeline phase the work belongs to (PhaseCluster,
	// PhaseMap, PhaseMerge).
	Phase string `json:"phase"`
	// Worker is the scheduler worker index that ran the job; -1 marks the
	// coordinating goroutine (phase envelopes, fan-outs, preparation).
	Worker int `json:"worker"`
	// Level is the hierarchy depth of the job, -1 when not applicable.
	Level int `json:"level"`
	// Hash is the structural fingerprint of the subproblem (sibling-group
	// key), 0 when not applicable.
	Hash uint64 `json:"hash,omitempty"`
	// Jobs is a job count: on "prepare", the representative solves or
	// merges the level is about to dispatch; on "fanout", the subproblems
	// or merges the level committed, sibling-reuse copies included.
	Jobs int `json:"jobs,omitempty"`
	// MCL is the best maximum channel load the job produced: the
	// representative's on "solve", the merged block's best candidate on
	// "merge".
	MCL float64 `json:"mcl,omitempty"`
	// TraceID is the request identity the span belongs to, "" for spans
	// emitted outside a traced scope (CLI runs).
	TraceID string `json:"trace,omitempty"`
	// Start is the offset from the recorder epoch.
	Start time.Duration `json:"start_ns"`
	// Dur is the span's wall-clock duration.
	Dur time.Duration `json:"dur_ns"`
}

// End returns Start + Dur.
func (s Span) End() time.Duration { return s.Start + s.Dur }

// Observer consumes completed spans. The pipeline delivers them through the
// Scope on the solve context (Scope.Span); start is the span's absolute
// start time. Job spans fire from worker goroutines the moment each job
// finishes, so their order reflects real execution timing and varies run to
// run, and implementations must be safe for concurrent use. A phase's
// envelope arrives after every job span of that phase.
type Observer interface {
	Record(sp Span, start time.Time)
}

// Tee returns an Observer that hands every span to all non-nil members, in
// argument order. With zero non-nil members it returns nil; with one, that
// member unchanged. It adds no synchronization: it is safe for concurrent
// use exactly when every member is.
func Tee(members ...Observer) Observer {
	kept := make(tee, 0, len(members))
	for _, o := range members {
		if o != nil {
			kept = append(kept, o)
		}
	}
	switch len(kept) {
	case 0:
		return nil
	case 1:
		return kept[0]
	}
	return kept
}

type tee []Observer

// Record implements Observer.
func (t tee) Record(sp Span, start time.Time) {
	for _, o := range t {
		o.Record(sp, start)
	}
}

// Log is an Observer that writes one line per span to an io.Writer,
// serialized by an internal mutex, e.g.
//
//	rahtm: map solve level 0 worker 0 mcl 12 in 724ms
//	rahtm: phase map done in 1.2s
//
// A Log built with a nil writer, and a nil *Log, discard every span. Do not
// copy a Log after first use (it contains a mutex).
type Log struct {
	mu sync.Mutex
	w  io.Writer
}

// NewLog returns a Log writing to w.
func NewLog(w io.Writer) *Log { return &Log{w: w} }

// Record implements Observer.
func (l *Log) Record(sp Span, _ time.Time) {
	if l == nil || l.w == nil {
		return
	}
	line := fmt.Sprintf("rahtm: phase %s done", sp.Phase)
	if sp.Name != "phase" {
		line = fmt.Sprintf("rahtm: %s %s", sp.Phase, sp.Name)
		if sp.Level >= 0 {
			line += fmt.Sprintf(" level %d", sp.Level)
		}
		if sp.Worker >= 0 {
			line += fmt.Sprintf(" worker %d", sp.Worker)
		}
		if sp.Jobs > 0 {
			line += fmt.Sprintf(" jobs %d", sp.Jobs)
		}
		if sp.MCL != 0 {
			line += fmt.Sprintf(" mcl %.4g", sp.MCL)
		}
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	fmt.Fprintf(l.w, "%s in %v\n", line, sp.Dur)
}

// Recorder is an Observer that collects spans on a timeline whose zero is
// its creation time. It is safe for concurrent use.
type Recorder struct {
	mu    sync.Mutex
	epoch time.Time
	spans []Span
}

// NewRecorder returns an empty recorder whose epoch (timeline zero) is now.
func NewRecorder() *Recorder {
	return &Recorder{epoch: time.Now()}
}

// Record implements Observer: the span joins the timeline at start's
// offset from the recorder epoch.
func (r *Recorder) Record(sp Span, start time.Time) {
	sp.Start = start.Sub(r.epoch)
	r.mu.Lock()
	r.spans = append(r.spans, sp)
	r.mu.Unlock()
}

// Len returns the number of recorded spans.
func (r *Recorder) Len() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.spans)
}

// Spans returns a copy of the recorded spans, sorted by start offset.
func (r *Recorder) Spans() []Span {
	r.mu.Lock()
	out := append([]Span(nil), r.spans...)
	r.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Start < out[j].Start })
	return out
}

// PhaseSpan returns the envelope span of the given phase, if recorded. With
// multiple pipeline runs on one recorder the last envelope wins.
func (r *Recorder) PhaseSpan(phase string) (Span, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for i := len(r.spans) - 1; i >= 0; i-- {
		if r.spans[i].Name == "phase" && r.spans[i].Phase == phase {
			return r.spans[i], true
		}
	}
	return Span{}, false
}

// PhaseCoverage returns the fraction of the phase envelope's wall time
// covered by the union of the phase's job spans (across all workers): 1.0
// means the timeline accounts for every moment of the phase, lower values
// expose untimed coordinator work or idle gaps. Returns 0 when the phase
// was not recorded or has zero duration.
func (r *Recorder) PhaseCoverage(phase string) float64 {
	env, ok := r.PhaseSpan(phase)
	if !ok || env.Dur <= 0 {
		return 0
	}
	type iv struct{ lo, hi time.Duration }
	var ivs []iv
	r.mu.Lock()
	for _, s := range r.spans {
		if s.Name == "phase" || s.Phase != phase {
			continue
		}
		lo, hi := s.Start, s.End()
		if lo < env.Start {
			lo = env.Start
		}
		if hi > env.End() {
			hi = env.End()
		}
		if hi > lo {
			ivs = append(ivs, iv{lo, hi})
		}
	}
	r.mu.Unlock()
	if len(ivs) == 0 {
		return 0
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].lo < ivs[j].lo })
	var covered, hi time.Duration
	lo := ivs[0].lo
	hi = ivs[0].hi
	for _, v := range ivs[1:] {
		if v.lo > hi {
			covered += hi - lo
			lo, hi = v.lo, v.hi
			continue
		}
		if v.hi > hi {
			hi = v.hi
		}
	}
	covered += hi - lo
	return float64(covered) / float64(env.Dur)
}

// WriteJSONL writes one JSON object per span (sorted by start offset) —
// the format downstream analysis scripts consume.
func (r *Recorder) WriteJSONL(w io.Writer) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	for _, s := range r.Spans() {
		if err := enc.Encode(s); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// chromeEvent is one Chrome trace-event (the Perfetto/chrome://tracing
// JSON format). Durations and timestamps are microseconds.
type chromeEvent struct {
	Name string                 `json:"name"`
	Cat  string                 `json:"cat,omitempty"`
	Ph   string                 `json:"ph"`
	Ts   float64                `json:"ts"`
	Dur  float64                `json:"dur,omitempty"`
	Pid  int                    `json:"pid"`
	Tid  int                    `json:"tid"`
	Args map[string]interface{} `json:"args,omitempty"`
}

// WriteChromeTrace writes the spans as a Chrome trace-event file: load it
// in Perfetto (ui.perfetto.dev) or chrome://tracing to see the parallel
// worker timeline and idle gaps. Workers map to threads; the coordinating
// goroutine (phase envelopes, preparation, fan-out) is thread 0.
func (r *Recorder) WriteChromeTrace(w io.Writer) error {
	spans := r.Spans()
	const pid = 1
	tidOf := func(worker int) int { return worker + 1 } // coordinator -1 -> 0
	events := []chromeEvent{{
		Name: "process_name", Ph: "M", Pid: pid,
		Args: map[string]interface{}{"name": "rahtm pipeline"},
	}}
	threads := map[int]bool{}
	for _, s := range spans {
		threads[tidOf(s.Worker)] = true
	}
	tids := make([]int, 0, len(threads))
	for tid := range threads {
		tids = append(tids, tid)
	}
	sort.Ints(tids)
	for _, tid := range tids {
		name := fmt.Sprintf("worker %d", tid-1)
		if tid == 0 {
			name = "coordinator"
		}
		events = append(events, chromeEvent{
			Name: "thread_name", Ph: "M", Pid: pid, Tid: tid,
			Args: map[string]interface{}{"name": name},
		})
	}
	for _, s := range spans {
		ev := chromeEvent{
			Name: s.Name,
			Cat:  s.Phase,
			Ph:   "X",
			Ts:   float64(s.Start) / float64(time.Microsecond),
			Dur:  float64(s.Dur) / float64(time.Microsecond),
			Pid:  pid,
			Tid:  tidOf(s.Worker),
			Args: map[string]interface{}{"phase": s.Phase},
		}
		if s.Level >= 0 {
			ev.Args["level"] = s.Level
			ev.Name = fmt.Sprintf("%s L%d", s.Name, s.Level)
		}
		if s.Hash != 0 {
			ev.Args["hash"] = fmt.Sprintf("%#x", s.Hash)
		}
		events = append(events, ev)
	}
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	if err := enc.Encode(struct {
		TraceEvents []chromeEvent `json:"traceEvents"`
	}{events}); err != nil {
		return err
	}
	return bw.Flush()
}
