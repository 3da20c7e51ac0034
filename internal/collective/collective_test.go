package collective

import (
	"math"
	"testing"
	"testing/quick"

	"rahtm/internal/graph"
)

func volPerProcess(g *graph.Comm, rank int) float64 {
	return g.OutVolume(rank)
}

func TestRecursiveDoublingAllGatherVolume(t *testing.T) {
	b := graph.New(8)
	if err := RecursiveDoublingAllGather(b, World(8), 10); err != nil {
		t.Fatal(err)
	}
	g := b.Build()
	// Each process sends msg*(n-1) total: 10*7 = 70.
	for r := 0; r < 8; r++ {
		if v := volPerProcess(g, r); math.Abs(v-70) > 1e-9 {
			t.Fatalf("rank %d volume %v, want 70", r, v)
		}
	}
	// Stage distances are powers of two: rank 0 talks to 1, 2, 4.
	nb := g.Neighbors(0)
	want := []int{1, 2, 4}
	if len(nb) != 3 || nb[0] != want[0] || nb[1] != want[1] || nb[2] != want[2] {
		t.Fatalf("rank 0 partners = %v, want %v", nb, want)
	}
}

func TestDisseminationAllGatherAnySize(t *testing.T) {
	b := graph.New(6)
	if err := DisseminationAllGather(b, World(6), 3); err != nil {
		t.Fatal(err)
	}
	g := b.Build()
	// Stages s=1,2,4 with blocks 1,2,2: total per process 3*(1+2+2) = 15 =
	// msg*(n-1).
	for r := 0; r < 6; r++ {
		if v := volPerProcess(g, r); math.Abs(v-15) > 1e-9 {
			t.Fatalf("rank %d volume %v, want 15", r, v)
		}
	}
	// Partner of rank 5 at stage 1 wraps to 0.
	if g.Traffic(5, 0) == 0 {
		t.Fatal("dissemination must wrap")
	}
}

func TestAllGatherImplementationsDiffer(t *testing.T) {
	// §VI's point: the same collective has different patterns per
	// implementation, so mapping must know which one runs.
	rd, diss := graph.New(8), graph.New(8)
	if err := RecursiveDoublingAllGather(rd, World(8), 1); err != nil {
		t.Fatal(err)
	}
	if err := DisseminationAllGather(diss, World(8), 1); err != nil {
		t.Fatal(err)
	}
	a, b := rd.Build(), diss.Build()
	if a.Equal(b, 1e-12) {
		t.Fatal("recursive doubling and dissemination should differ")
	}
	// But both move the same total volume.
	if math.Abs(a.TotalVolume()-b.TotalVolume()) > 1e-9 {
		t.Fatalf("total volumes differ: %v vs %v", a.TotalVolume(), b.TotalVolume())
	}
}

func TestRecursiveDoublingAllReduce(t *testing.T) {
	b := graph.New(4)
	if err := RecursiveDoublingAllReduce(b, World(4), 5); err != nil {
		t.Fatal(err)
	}
	g := b.Build()
	// log2(4)=2 stages, msg each: 10 per process.
	for r := 0; r < 4; r++ {
		if v := volPerProcess(g, r); math.Abs(v-10) > 1e-9 {
			t.Fatalf("rank %d volume %v, want 10", r, v)
		}
	}
}

func TestRingAllReduceVolume(t *testing.T) {
	b := graph.New(4)
	if err := RingAllReduce(b, World(4), 8); err != nil {
		t.Fatal(err)
	}
	g := b.Build()
	// 2*(n-1)/n*msg = 2*3/4*8 = 12 to the successor only.
	for r := 0; r < 4; r++ {
		if v := g.Traffic(r, (r+1)%4); math.Abs(v-12) > 1e-9 {
			t.Fatalf("ring edge %d volume %v, want 12", r, v)
		}
		if len(g.Neighbors(r)) != 1 {
			t.Fatalf("ring rank %d has %d partners", r, len(g.Neighbors(r)))
		}
	}
}

func TestBinomialBroadcastTree(t *testing.T) {
	b := graph.New(8)
	if err := BinomialBroadcast(b, World(8), 1); err != nil {
		t.Fatal(err)
	}
	g := b.Build()
	// A binomial broadcast over n processes has exactly n-1 edges.
	if g.NumEdges() != 7 {
		t.Fatalf("edges = %d, want 7", g.NumEdges())
	}
	// Root sends to 4, 2, 1.
	nb := g.Neighbors(0)
	if len(nb) != 3 {
		t.Fatalf("root partners = %v", nb)
	}
	// Every non-root receives exactly once.
	for r := 1; r < 8; r++ {
		in := 0.0
		for s := 0; s < 8; s++ {
			in += g.Traffic(s, r)
		}
		if math.Abs(in-1) > 1e-9 {
			t.Fatalf("rank %d received %v, want 1", r, in)
		}
	}
}

func TestBinomialReduceIsReversedBroadcast(t *testing.T) {
	bb := graph.New(8)
	rb := graph.New(8)
	if err := BinomialBroadcast(bb, World(8), 2); err != nil {
		t.Fatal(err)
	}
	b := bb.Build()
	if err := BinomialReduce(rb, World(8), 2); err != nil {
		t.Fatal(err)
	}
	r := rb.Build()
	for s := 0; s < 8; s++ {
		for d := 0; d < 8; d++ {
			if math.Abs(b.Traffic(s, d)-r.Traffic(d, s)) > 1e-12 {
				t.Fatalf("reduce is not the reversed broadcast at (%d,%d)", s, d)
			}
		}
	}
}

func TestPairwiseAllToAll(t *testing.T) {
	b := graph.New(4)
	if err := PairwiseAllToAll(b, World(4), 3); err != nil {
		t.Fatal(err)
	}
	g := b.Build()
	// Every ordered pair carries exactly msg.
	for s := 0; s < 4; s++ {
		for d := 0; d < 4; d++ {
			if s == d {
				continue
			}
			if math.Abs(g.Traffic(s, d)-3) > 1e-9 {
				t.Fatalf("traffic(%d,%d) = %v, want 3", s, d, g.Traffic(s, d))
			}
		}
	}
}

func TestReduceScatterRing(t *testing.T) {
	b := graph.New(4)
	if err := ReduceScatterRing(b, World(4), 8); err != nil {
		t.Fatal(err)
	}
	g := b.Build()
	for r := 0; r < 4; r++ {
		if v := g.Traffic(r, (r+1)%4); math.Abs(v-6) > 1e-9 {
			t.Fatalf("edge volume %v, want 6", v)
		}
	}
}

func TestSubCommunicator(t *testing.T) {
	// A collective over a row of a larger job touches only those ranks.
	b := graph.New(16)
	row := Communicator{4, 5, 6, 7}
	if err := RecursiveDoublingAllReduce(b, row, 1); err != nil {
		t.Fatal(err)
	}
	g := b.Build()
	for r := 0; r < 16; r++ {
		v := volPerProcess(g, r)
		if r >= 4 && r < 8 {
			if v == 0 {
				t.Fatalf("row rank %d silent", r)
			}
		} else if v != 0 {
			t.Fatalf("rank %d outside the communicator communicates", r)
		}
	}
}

func TestValidationErrors(t *testing.T) {
	b := graph.New(4)
	if err := RecursiveDoublingAllGather(b, Communicator{}, 1); err == nil {
		t.Fatal("empty communicator should fail")
	}
	if err := RecursiveDoublingAllGather(b, Communicator{0, 0}, 1); err == nil {
		t.Fatal("duplicate rank should fail")
	}
	if err := RecursiveDoublingAllGather(b, Communicator{0, 9}, 1); err == nil {
		t.Fatal("out-of-range rank should fail")
	}
	if err := RecursiveDoublingAllGather(b, Communicator{0, 1, 2}, 1); err == nil {
		t.Fatal("non-power-of-two should fail for recursive doubling")
	}
	if err := PairwiseAllToAll(b, Communicator{0, 1, 2}, 1); err == nil {
		t.Fatal("non-power-of-two should fail for pairwise all-to-all")
	}
}

func TestSingletonCommunicatorsAreSilent(t *testing.T) {
	b := graph.New(2)
	for _, op := range Ops() {
		if err := Add(b, op, Communicator{0}, 5); err != nil {
			t.Fatalf("%s on singleton: %v", op, err)
		}
	}
	g := b.Build()
	if g.TotalVolume() != 0 {
		t.Fatal("singleton collectives should move nothing")
	}
}

func TestAddDispatch(t *testing.T) {
	for _, op := range Ops() {
		b := graph.New(8)
		if err := Add(b, op, World(8), 1); err != nil {
			t.Fatalf("%s: %v", op, err)
		}
		g := b.Build()
		if g.TotalVolume() <= 0 {
			t.Fatalf("%s moved no data", op)
		}
	}
	if err := Add(graph.New(2), Op("nope"), World(2), 1); err == nil {
		t.Fatal("unknown op should fail")
	}
}

// Property: all-gather implementations deliver msg*(n-1) bytes per process
// regardless of communicator size (dissemination) or power-of-two sizes
// (recursive doubling).
func TestQuickAllGatherVolumeInvariant(t *testing.T) {
	prop := func(seedRaw int64) bool {
		n := 2 + int(uint64(seedRaw)%14)
		msg := 1 + float64(uint64(seedRaw)%5)
		b := graph.New(n)
		if err := DisseminationAllGather(b, World(n), msg); err != nil {
			return false
		}
		g := b.Build()
		for r := 0; r < n; r++ {
			if math.Abs(g.OutVolume(r)-msg*float64(n-1)) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
