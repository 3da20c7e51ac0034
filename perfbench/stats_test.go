package main

import (
	"encoding/json"
	"math"
	"os"
	"testing"
	"time"
)

func TestTailHasTenSamplesBeyond(t *testing.T) {
	if _, _, ok := tail(make([]float64, tailBeyond)); ok {
		t.Fatalf("%d samples: want no tail", tailBeyond)
	}
	xs := make([]float64, 1000)
	for i := range xs {
		xs[i] = float64(1000 - i) // descending, so tail must sort
	}
	pct, v, ok := tail(xs)
	if !ok || v != 990 || math.Abs(pct-99.0) > 1e-9 {
		t.Fatalf("1000 samples: got p%v=%v ok=%v, want p99=990", pct, v, ok)
	}
	beyond := 0
	for _, x := range xs {
		if x > v {
			beyond++
		}
	}
	if beyond != tailBeyond {
		t.Fatalf("%d samples beyond the tail, want %d", beyond, tailBeyond)
	}
	pct, v, ok = tail([]float64{5, 1, 4, 2, 3, 6, 7, 8, 9, 10, 11})
	if !ok || v != 1 || math.Abs(pct-100.0/11) > 1e-9 {
		t.Fatalf("11 samples: got p%v=%v ok=%v, want the minimum", pct, v, ok)
	}
}

func TestGeomeanOfMedians(t *testing.T) {
	got := geomeanOfMedians(map[string][]float64{
		"a": {1, 100, 2},     // median 2
		"b": {8, 8},          // median 8
		"c": {3, 1000, 1, 5}, // median 4
	})
	if want := 4.0; math.Abs(got-want) > 1e-12 {
		t.Fatalf("got %v, want %v", got, want)
	}
	if geomean([]float64{2, 0}) != 0 || geomean(nil) != 0 {
		t.Fatal("geomean of a non-positive or empty sample must be 0")
	}
	if median([]float64{3, 1, 2, 10}) != 2.5 {
		t.Fatal("even-length median")
	}
}

func TestPooledRates(t *testing.T) {
	sec := time.Second
	rate, cost := pooledRates([]stretch{
		{wall: sec, cpu: 2 * sec, ops: 100},
		{wall: 2 * sec, cpu: 2 * sec, ops: 100}, // a slow stretch
		{wall: sec, cpu: 0, ops: 0},             // nothing completed
	})
	if rate != 50 {
		t.Errorf("rate %v, want 200 ops in 4 s = 50 ops/s", rate)
	}
	if cost != 20 {
		t.Errorf("cost %v, want 4 s of CPU over 200 ops = 20 ms/op", cost)
	}
	if r, c := pooledRates(nil); r != 0 || c != 0 {
		t.Errorf("no stretches: got %v, %v, want 0, 0", r, c)
	}
}

func TestGateCountsEachOpOnce(t *testing.T) {
	g := newGate("error", "placement", "mcl_exact")
	g.record()
	g.record("placement", "mcl_exact")
	g.record("mcl_exact")
	g.record("repeatable")
	if g.attempted != 4 || g.failed != 3 {
		t.Fatalf("attempted %d failed %d, want 4 and 3", g.attempted, g.failed)
	}
	want := map[string]int{"error": 0, "placement": 1, "mcl_exact": 2, "repeatable": 1}
	for c, n := range want {
		if g.byCheck[c] != n {
			t.Errorf("check %s: %d failures, want %d", c, g.byCheck[c], n)
		}
	}
	if len(g.checks) != 4 {
		t.Errorf("checks %v: a new check must be listed once", g.checks)
	}
	if g.failRatio() != 0.75 {
		t.Errorf("fail ratio %v, want 0.75", g.failRatio())
	}
	if newGate().failRatio() != 0 {
		t.Error("no ops: fail ratio must be 0")
	}
}

func TestSelfTimeOverlappingSpans(t *testing.T) {
	ms := time.Millisecond
	parent := interval{0, 100 * ms}
	cases := []struct {
		name     string
		children []interval
		want     time.Duration
	}{
		{"none", nil, 100 * ms},
		{"disjoint", []interval{{10 * ms, 20 * ms}, {50 * ms, 60 * ms}}, 80 * ms},
		{"overlapping workers", []interval{{10 * ms, 40 * ms}, {30 * ms, 50 * ms}, {35 * ms, 45 * ms}}, 60 * ms},
		{"sticking out", []interval{{-10 * ms, 10 * ms}, {90 * ms, 120 * ms}}, 80 * ms},
		{"outside", []interval{{200 * ms, 300 * ms}}, 100 * ms},
		{"covering", []interval{{0, 60 * ms}, {60 * ms, 100 * ms}}, 0},
		{"unsorted", []interval{{70 * ms, 80 * ms}, {0, 10 * ms}, {5 * ms, 15 * ms}}, 75 * ms},
	}
	for _, c := range cases {
		if got := selfTime(parent, c.children); got != c.want {
			t.Errorf("%s: self %v, want %v", c.name, got, c.want)
		}
	}
	if got := coverage(parent, []interval{{0, 25 * ms}}); got != 0.25 {
		t.Errorf("coverage %v, want 0.25", got)
	}
}

// TestBenchmarkJSONMatches keeps the declared metric lists in step with
// the BENCHMARK.json at the repository root.
func TestBenchmarkJSONMatches(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name string } `json:"end_to_end"`
		PerLayer  []struct{ Name string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	same := func(what string, declared []struct{ Name string }, names []string) {
		if len(declared) != len(names) {
			t.Errorf("%s: BENCHMARK.json declares %d, the benchmark reports %d", what, len(declared), len(names))
			return
		}
		for i := range names {
			if declared[i].Name != names[i] {
				t.Errorf("%s %d: BENCHMARK.json %q, benchmark %q", what, i, declared[i].Name, names[i])
			}
		}
	}
	same("end_to_end", spec.EndToEnd, endToEndNames)
	same("per_layer", spec.PerLayer, perLayerNames)
	same("workloads", spec.Workloads, workloadNames())
}

// TestMixShares checks that the serve-mix schedule holds the shares doc.go
// derives: per 20-request block 13 hits, 4 cold 4x4 solves, 2 baseline and
// 1 deadline request, with one 4x4 solve in every cold8Every-th block
// swapped for an 8x8 one; and that the quality set ends after exactly
// qualityGraphs cold graphs.
func TestMixShares(t *testing.T) {
	m := &mixSchedule{seed: 7}
	blocks := 2 * cold8Every
	var got [numClasses]int
	for i := 0; i < blocks*len(block); i++ {
		got[m.classAt(i)]++
	}
	want := [numClasses]int{
		hit: 13 * blocks, cold4: 4*blocks - 2, cold8: 2, baseline: 2 * blocks, degraded: blocks,
	}
	if got != want {
		t.Fatalf("classes over %d blocks: got %v, want %v", blocks, got, want)
	}
	if a, b := m.classAt(12345), (&mixSchedule{seed: 7}).classAt(12345); a != b {
		t.Fatal("the schedule must be a function of the seed")
	}
	end, cold := m.qualityEnd(), 0
	for i := 0; i < end; i++ {
		if c := m.classAt(i); c == cold4 || c == cold8 {
			cold++
		}
	}
	if c := m.classAt(end - 1); cold != qualityGraphs || (c != cold4 && c != cold8) {
		t.Fatalf("quality set: %d cold graphs before index %d, want %d ending on a cold one", cold, end, qualityGraphs)
	}
}

func TestNormScalesByHostSpeed(t *testing.T) {
	// A mean wall time per unit twice the nominal one, a quarter of it
	// stolen: the host ran at half speed by wall time, two thirds by CPU.
	p := &speedProbe{samples: []refSample{
		{wall: refNominal, cpu: refNominal},
		{wall: 3 * refNominal, cpu: 2 * refNominal},
	}}
	speed, cpuSpeed := p.speed(), p.cpuSpeed()
	if speed != 0.5 || math.Abs(cpuSpeed-2.0/3) > 1e-12 {
		t.Fatalf("speed %v and %v by CPU time, want 0.5 and 2/3", speed, cpuSpeed)
	}
	e := newMetrics()
	e.set("throughput_ops_s", 100, "ops/s")
	e.set("latency_p50_ms", 4, "ms")
	e.set("cpu_ms_per_op", 9, "ms")
	setNorm(e, speed, cpuSpeed, 4, 0.25)
	for name, want := range map[string]float64{
		"setup_s": 1, "norm_throughput_ops_s": 200, "norm_latency_p50_ms": 2, "norm_cpu_ms_per_op": 6,
	} {
		if got := e.vals[name].Value; got != want {
			t.Errorf("%s = %v, want %v", name, got, want)
		}
	}
	if (&speedProbe{}).speed() != 0 {
		t.Error("a probe without samples must give speed 0")
	}
}

func TestReferenceKernelAllocatesNothing(t *testing.T) {
	s, err := newRefScratch()
	if err != nil {
		t.Fatal(err)
	}
	defer (&speedProbe{scratch: []*refScratch{s}}).free()
	if n := testing.AllocsPerRun(2, s.unit); n != 0 {
		t.Fatalf("a kernel unit allocated %v times; the probe must leave the Go heap alone", n)
	}
}
