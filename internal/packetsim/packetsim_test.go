package packetsim

import (
	"context"
	"math"
	"testing"

	"rahtm/internal/graph"
	"rahtm/internal/routing"
	"rahtm/internal/topology"
)

func TestSingleFlowSerialization(t *testing.T) {
	tp := topology.NewMesh(2)
	b := graph.New(2)
	b.AddTraffic(0, 1, 10)
	g := b.Build()
	res, err := SimulateCtx(context.Background(), tp, g, topology.Identity(2), Config{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Packets != 10 {
		t.Fatalf("packets = %d, want 10", res.Packets)
	}
	// One link at 1 packet/cycle: at least 10 cycles, and little more.
	if res.Cycles < 10 || res.Cycles > 15 {
		t.Fatalf("cycles = %d, want ~10-15", res.Cycles)
	}
	if res.AvgHops != 1 {
		t.Fatalf("avg hops = %v, want 1", res.AvgHops)
	}
}

func TestPacketization(t *testing.T) {
	tp := topology.NewMesh(2)
	b := graph.New(2)
	b.AddTraffic(0, 1, 1024)
	g := b.Build()
	res, err := SimulateCtx(context.Background(), tp, g, topology.Identity(2), Config{PacketBytes: 100})
	if err != nil {
		t.Fatal(err)
	}
	if res.Packets != 11 { // ceil(1024/100)
		t.Fatalf("packets = %d, want 11", res.Packets)
	}
}

func TestColocatedTrafficFree(t *testing.T) {
	tp := topology.NewMesh(2)
	b := graph.New(4)
	b.AddTraffic(0, 1, 1e6)
	g := b.Build()
	res, err := SimulateCtx(context.Background(), tp, g, topology.Mapping{0, 0, 1, 1}, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Packets != 0 || res.Cycles != 0 {
		t.Fatalf("co-located traffic simulated: %+v", res)
	}
}

func TestHopsAreMinimal(t *testing.T) {
	tp := topology.NewTorus(4, 4)
	b := graph.New(16)
	b.AddTraffic(0, 15, 7)
	b.AddTraffic(3, 9, 5)
	b.AddTraffic(5, 6, 2)
	g := b.Build()
	m := topology.Identity(16)
	res, err := SimulateCtx(context.Background(), tp, g, m, Config{})
	if err != nil {
		t.Fatal(err)
	}
	wantHops := 7*tp.MinDistance(0, 15) + 5*tp.MinDistance(3, 9) + 2*tp.MinDistance(5, 6)
	if res.TotalHops != wantHops {
		t.Fatalf("total hops = %d, want %d (adaptive routing must stay minimal)", res.TotalHops, wantHops)
	}
}

func TestAdaptiveBeatsConcentration(t *testing.T) {
	// The Figure 1 validation at packet level: a heavy diagonal pair
	// (paths split adaptively) completes faster than the same pair on
	// adjacent nodes (single bottleneck link).
	tp := topology.NewMesh(2, 2)
	heavy := 400.0
	b := graph.New(4)
	b.AddTraffic(0, 1, heavy)
	g := b.Build()
	adjacent := topology.Mapping{0, 1, 2, 3} // distance 1
	diagonal := topology.Mapping{0, 3, 1, 2} // distance 2, two paths
	ra, err := SimulateCtx(context.Background(), tp, g, adjacent, Config{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	rd, err := SimulateCtx(context.Background(), tp, g, diagonal, Config{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if rd.Cycles >= ra.Cycles {
		t.Fatalf("diagonal %d cycles, adjacent %d: adaptivity should win", rd.Cycles, ra.Cycles)
	}
	// Roughly 2x: two links instead of one.
	if float64(ra.Cycles)/float64(rd.Cycles) < 1.5 {
		t.Fatalf("speedup only %v, want ~2x", float64(ra.Cycles)/float64(rd.Cycles))
	}
}

func TestSimulationValidatesMCLPrediction(t *testing.T) {
	// Core validation: lower MCL must mean fewer simulated cycles for the
	// same traffic. Compare the default mapping with a deliberately awful
	// one on a CG-like pattern.
	// A periodic 4x4 halo: the identity mapping is contention-free
	// (every flow distance 1), while an interleaved mapping stretches
	// every flow across the machine.
	tp := topology.NewTorus(4, 4)
	b := graph.New(16)
	for i := 0; i < 4; i++ {
		for j := 0; j < 4; j++ {
			id := i*4 + j
			b.AddTraffic(id, i*4+(j+1)%4, 40)
			b.AddTraffic(id, ((i+1)%4)*4+j, 40)
		}
	}
	g := b.Build()
	good := topology.Identity(16)
	bad := make(topology.Mapping, 16)
	for i := range bad {
		bad[i] = (i*7 + 3) % 16
	}
	mclGood := routing.MaxChannelLoad(tp, g, good, routing.MinimalAdaptive{})
	mclBad := routing.MaxChannelLoad(tp, g, bad, routing.MinimalAdaptive{})
	if mclBad < 2*mclGood {
		t.Fatalf("test setup: want a decisive MCL gap, got %v vs %v", mclGood, mclBad)
	}
	// High injection rate so links — not NICs — are the bottleneck, as in
	// the paper's bandwidth-bound benchmarks.
	cfg := Config{Seed: 2, InjectionRate: 64}
	rGood, err := SimulateCtx(context.Background(), tp, g, good, cfg)
	if err != nil {
		t.Fatal(err)
	}
	rBad, err := SimulateCtx(context.Background(), tp, g, bad, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rGood.Cycles >= rBad.Cycles {
		t.Fatalf("MCL (%v vs %v) and simulation (%d vs %d cycles) disagree",
			mclGood, mclBad, rGood.Cycles, rBad.Cycles)
	}
}

func TestDeterminismBySeed(t *testing.T) {
	tp := topology.NewTorus(4, 4)
	gb := graph.New(16)
	for i := 0; i < 16; i++ {
		gb.AddTraffic(i, (i+5)%16, 20)
	}
	g := gb.Build()
	m := topology.Identity(16)
	a, err := SimulateCtx(context.Background(), tp, g, m, Config{Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	b, err := SimulateCtx(context.Background(), tp, g, m, Config{Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	if a.Cycles != b.Cycles || a.AvgLatency != b.AvgLatency {
		t.Fatal("same seed, different outcome")
	}
}

func TestMaxCyclesAborts(t *testing.T) {
	tp := topology.NewMesh(2)
	b := graph.New(2)
	b.AddTraffic(0, 1, 1000)
	g := b.Build()
	if _, err := SimulateCtx(context.Background(), tp, g, topology.Identity(2), Config{MaxCycles: 3}); err == nil {
		t.Fatal("expected abort")
	}
}

func TestMappingMismatch(t *testing.T) {
	tp := topology.NewMesh(2)
	g := graph.New(3).Build()
	if _, err := SimulateCtx(context.Background(), tp, g, topology.Mapping{0, 1}, Config{}); err == nil {
		t.Fatal("expected error")
	}
}

func TestLatencyAccounting(t *testing.T) {
	tp := topology.NewMesh(3)
	b := graph.New(3)
	b.AddTraffic(0, 2, 1)
	g := b.Build()
	res, err := SimulateCtx(context.Background(), tp, g, topology.Identity(3), Config{})
	if err != nil {
		t.Fatal(err)
	}
	// One packet over two hops: latency exactly 2 cycles.
	if math.Abs(res.AvgLatency-2) > 1e-12 || res.MaxLatency != 2 {
		t.Fatalf("latency = %v/%d, want 2/2", res.AvgLatency, res.MaxLatency)
	}
}
