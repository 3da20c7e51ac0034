package telemetry

import (
	"sync"
	"testing"
	"time"
)

func TestProgressTrackerLifecycle(t *testing.T) {
	tr := NewProgressTracker()
	if p := tr.Snapshot(); p.BestLevel != -1 || p.Phase != "" {
		t.Fatalf("fresh tracker: %+v", p)
	}
	now := time.Now()
	tr.Record(Span{Name: "phase", Phase: PhaseCluster, Worker: -1, Level: -1}, now)
	if p := tr.Snapshot(); p.Phase != PhaseCluster || !p.PhaseDone {
		t.Fatalf("cluster envelope: %+v", p)
	}
	tr.Record(Span{Name: "prepare", Phase: PhaseMap, Worker: -1, Level: 1, Jobs: 6}, now)
	tr.Record(Span{Name: "solve", Phase: PhaseMap, Level: 1, Hash: 7, MCL: 4}, now)
	tr.Record(Span{Name: "fanout", Phase: PhaseMap, Worker: -1, Level: 1, Jobs: 2}, now)
	p := tr.Snapshot()
	if p.Phase != PhaseMap || p.PhaseDone {
		t.Fatalf("phase: %+v", p)
	}
	if p.MapJobsPlanned != 6 || p.MapJobsDone != 1 || p.Subproblems != 2 {
		t.Fatalf("map counters: %+v", p)
	}
	tr.Record(Span{Name: "phase", Phase: PhaseMap, Worker: -1, Level: -1}, now)
	tr.Record(Span{Name: "prepare", Phase: PhaseMerge, Worker: -1, Level: 1, Jobs: 3}, now)
	tr.Record(Span{Name: "merge", Phase: PhaseMerge, Worker: 1, Level: 1, MCL: 12.5}, now)
	tr.Record(Span{Name: "merge", Phase: PhaseMerge, Worker: 0, Level: 0, MCL: 9.25}, now) // shallower level wins
	tr.Record(Span{Name: "merge", Phase: PhaseMerge, Worker: 1, Level: 1, MCL: 1.0}, now)  // deeper level must not override
	// A barred root merge carries no MCL and must not override either.
	tr.Record(Span{Name: "merge", Phase: PhaseMerge, Worker: 0, Level: 0, Barred: true}, now)
	tr.Record(Span{Name: "fanout", Phase: PhaseMerge, Worker: -1, Level: 1, Jobs: 4}, now)
	p = tr.Snapshot()
	if p.MergeJobsPlanned != 3 || p.MergeJobsDone != 4 || p.Subproblems != 2 {
		t.Fatalf("merge counters: %+v", p)
	}
	if p.BestLevel != 0 || p.BestMCL != 9.25 {
		t.Fatalf("best MCL: %+v", p)
	}
	tr.Record(Span{Name: "phase", Phase: PhaseMerge, Worker: -1, Level: -1}, now)
	if p = tr.Snapshot(); !p.PhaseDone || p.Phase != PhaseMerge {
		t.Fatalf("final phase state: %+v", p)
	}
}

func TestProgressTrackerConcurrent(t *testing.T) {
	tr := NewProgressTracker()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				tr.Record(Span{Name: "solve", Phase: PhaseMap, Worker: g}, time.Now())
				tr.Record(Span{Name: "fanout", Phase: PhaseMap, Worker: -1, Jobs: 1}, time.Now())
				tr.Record(Span{Name: "merge", Phase: PhaseMerge, Worker: g, Level: g % 3, MCL: float64(i + 1)}, time.Now())
				tr.Record(Span{Name: "prepare", Phase: PhaseMerge, Worker: -1, Jobs: 1}, time.Now())
			}
		}(g)
	}
	wg.Wait()
	p := tr.Snapshot()
	if p.MapJobsDone != 800 || p.Subproblems != 800 || p.MergeJobsPlanned != 800 || p.MergeJobsDone != 800 {
		t.Fatalf("lost spans: %+v", p)
	}
}
