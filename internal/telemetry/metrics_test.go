package telemetry

import (
	"math"
	"sync"
	"testing"
)

func TestCounterStripes(t *testing.T) {
	var c Counter
	c.Add(3)
	c.Inc()
	if got := c.Value(); got != 4 {
		t.Fatalf("Value = %d, want 4", got)
	}
	// A counter is one atomic cell: every handle to a registered name adds
	// into the same total.
	r := NewRegistry()
	handles := make([]*Counter, 8)
	for i := range handles {
		handles[i] = r.Counter("x")
		handles[i].Add(10)
	}
	if got := r.Counter("x").Value(); got != 10*int64(len(handles)) {
		t.Fatalf("Value = %d after adds through %d handles", got, len(handles))
	}
}

func TestCounterConcurrent(t *testing.T) {
	var c Counter
	const goroutines, per = 16, 1000
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				c.Inc()
			}
		}()
	}
	wg.Wait()
	if got := c.Value(); got != goroutines*per {
		t.Fatalf("lost increments: %d/%d", got, goroutines*per)
	}
}

func TestGauge(t *testing.T) {
	var g Gauge
	if g.Value() != 0 {
		t.Fatal("zero gauge must read 0")
	}
	g.Set(2.5)
	g.Add(0.5)
	if got := g.Value(); got != 3 {
		t.Fatalf("Value = %v, want 3", got)
	}
}

func TestHistogram(t *testing.T) {
	h := NewHistogram([]float64{1, 10, 100})
	for _, v := range []float64{0.5, 1, 5, 50, 500} {
		h.Observe(v)
	}
	s := h.snapshot()
	if s.Count != 5 {
		t.Fatalf("Count = %d", s.Count)
	}
	if s.Sum != 556.5 {
		t.Fatalf("Sum = %v", s.Sum)
	}
	want := []int64{2, 1, 1, 1} // <=1: {0.5, 1}; <=10: {5}; <=100: {50}; rest: {500}
	for i, n := range want {
		if s.Buckets[i] != n {
			t.Fatalf("bucket %d = %d, want %d (%v)", i, s.Buckets[i], n, s.Buckets)
		}
	}
}

func TestHistogramBadBoundsPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("descending bounds must panic")
		}
	}()
	NewHistogram([]float64{10, 1})
}

func TestRegistryGetOrCreate(t *testing.T) {
	r := NewRegistry()
	if r.Counter("a") != r.Counter("a") {
		t.Fatal("same name must yield the same counter")
	}
	if r.Gauge("g") != r.Gauge("g") {
		t.Fatal("same name must yield the same gauge")
	}
	h1 := r.Histogram("h", []float64{1, 2})
	if h2 := r.Histogram("h", []float64{9}); h1 != h2 {
		t.Fatal("first histogram registration must win")
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				r.Counter("race").Inc()
			}
		}()
	}
	wg.Wait()
	if got := r.Counter("race").Value(); got != 800 {
		t.Fatalf("concurrent get-or-create lost increments: %d", got)
	}
}

func TestSnapshotAndSub(t *testing.T) {
	r := NewRegistry()
	r.Counter("c").Add(5)
	r.Gauge("g").Set(1.5)
	r.Histogram("h", []float64{1}).Observe(0.5)
	prev := r.Snapshot()
	r.Counter("c").Add(7)
	snap := r.Snapshot()
	if snap.Counter("c") != 12 || prev.Counter("c") != 5 {
		t.Fatalf("snapshots not independent: %d / %d", snap.Counter("c"), prev.Counter("c"))
	}
	delta := snap.Sub(prev)
	if delta.Counter("c") != 7 {
		t.Fatalf("delta = %d, want 7", delta.Counter("c"))
	}
	if delta.Counter("absent") != 0 {
		t.Fatal("absent counter must read 0")
	}
	if snap.Gauges["g"] != 1.5 || snap.Histograms["h"].Count != 1 {
		t.Fatal("gauges/histograms missing from snapshot")
	}
}

func TestRate(t *testing.T) {
	if got := Rate(3, 1); got != 0.75 {
		t.Fatalf("Rate = %v", got)
	}
	if !math.IsNaN(Rate(0, 0)) {
		t.Fatal("zero denominator must be NaN")
	}
}
