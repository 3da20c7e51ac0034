package telemetry

import (
	"math"
	"sync"
	"time"
)

// Progress is a point-in-time view of a running pipeline, JSON-encodable
// as-is; the live endpoint serves it next to the metrics snapshot.
type Progress struct {
	// Phase is the pipeline phase of the latest span ("" before the first;
	// a completed phase keeps the name with PhaseDone set).
	Phase string `json:"phase"`
	// PhaseDone reports that Phase has completed and the next one has not
	// started yet.
	PhaseDone bool `json:"phase_done,omitempty"`
	// MapJobsPlanned / MapJobsDone count Phase 2 scheduler jobs
	// (representative subproblem solves after sibling grouping).
	MapJobsPlanned int `json:"map_jobs_planned"`
	MapJobsDone    int `json:"map_jobs_done"`
	// MergeJobsPlanned / MergeJobsDone count Phase 3 scheduler jobs.
	MergeJobsPlanned int `json:"merge_jobs_planned"`
	MergeJobsDone    int `json:"merge_jobs_done"`
	// Subproblems counts committed Phase 2 results including sibling-reuse
	// copies — the done/total a user compares against PhaseStats.
	Subproblems int `json:"subproblems"`
	// BestMCL is the best maximum channel load reported so far at the
	// shallowest hierarchy level reached; BestLevel is that level (-1 until
	// the first merge completes, in which case BestMCL is 0).
	BestMCL   float64 `json:"best_mcl"`
	BestLevel int     `json:"best_level"`
}

// ProgressTracker is an Observer that derives a live Progress view from
// the pipeline's spans. It is safe for concurrent use — attach it through
// a Scope (alongside other observers via Tee) and poll Snapshot from the
// serving goroutine.
type ProgressTracker struct {
	mu sync.Mutex
	p  Progress
}

// NewProgressTracker returns a tracker with no progress yet.
func NewProgressTracker() *ProgressTracker {
	return &ProgressTracker{p: Progress{BestLevel: -1}}
}

// Snapshot returns the current progress view.
func (t *ProgressTracker) Snapshot() Progress {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.p
}

// Record implements Observer. Job spans mark their phase running; the
// envelope marks it done. "prepare" spans plan jobs, "solve"/"merge" spans
// complete them, map "fanout" spans count committed subproblems, and the
// shallowest merge level's best MCL is the pipeline's best-so-far (level 0
// is the root merge).
func (t *ProgressTracker) Record(sp Span, _ time.Time) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.p.Phase = sp.Phase
	t.p.PhaseDone = sp.Name == "phase"
	switch sp.Name {
	case "prepare":
		if sp.Phase == PhaseMap {
			t.p.MapJobsPlanned += sp.Jobs
		} else {
			t.p.MergeJobsPlanned += sp.Jobs
		}
	case "solve":
		t.p.MapJobsDone++
	case "fanout":
		if sp.Phase == PhaseMap {
			t.p.Subproblems += sp.Jobs
		}
	case "merge":
		t.p.MergeJobsDone++
		if math.IsNaN(sp.MCL) || math.IsInf(sp.MCL, 0) {
			return
		}
		if t.p.BestLevel < 0 || sp.Level <= t.p.BestLevel {
			t.p.BestLevel = sp.Level
			t.p.BestMCL = sp.MCL
		}
	}
}
