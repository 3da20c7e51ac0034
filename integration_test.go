package rahtm

// End-to-end integration tests exercising the full toolchain the way a
// user would: profile ingestion -> mapping -> map-file round trip ->
// analytic simulation -> packet-level validation.

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"strings"
	"testing"
)

func TestEndToEndProfileToValidatedMapping(t *testing.T) {
	// 1. A communication profile with point-to-point and collective parts,
	// as an MPI profiling tool would emit it.
	profile := `
procs 16
# iterative stencil phase
p2p 0 1 400 2
p2p 1 2 400 2
p2p 2 3 400 2
coll allreduce-recursive-doubling 300 all
coll broadcast-binomial 100 0 1 2 3
`
	p, err := ParseProfile(strings.NewReader(profile))
	if err != nil {
		t.Fatal(err)
	}
	g, err := p.Graph()
	if err != nil {
		t.Fatal(err)
	}

	// 2. Map with RAHTM onto a 4x4 torus.
	tp := NewTorus(4, 4)
	w := &Workload{Name: "profiled", Graph: g, CommFraction: 0.5}
	mapping, err := Mapper{}.MapProcs(w, tp, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := mapping.Validate(tp.N(), true); err != nil {
		t.Fatal(err)
	}

	// 3. Map-file round trip in both formats.
	var ranks bytes.Buffer
	if err := WriteMapFileRanks(&ranks, mapping, "integration"); err != nil {
		t.Fatal(err)
	}
	back, err := ReadMapFile(&ranks, tp)
	if err != nil {
		t.Fatal(err)
	}
	var coords bytes.Buffer
	if err := WriteMapFileCoords(&coords, tp, mapping, "integration"); err != nil {
		t.Fatal(err)
	}
	back2, err := ReadMapFile(&coords, tp)
	if err != nil {
		t.Fatal(err)
	}
	for i := range mapping {
		if back[i] != mapping[i] || back2[i] != mapping[i] {
			t.Fatalf("map file round trip diverged at %d: %d / %d / %d",
				i, mapping[i], back[i], back2[i])
		}
	}

	// 4. The mapping must beat the default under the analytic model...
	def, err := DefaultMapper(tp).MapProcs(w, tp, 1)
	if err != nil {
		t.Fatal(err)
	}
	if MCL(tp, g, mapping) > MCL(tp, g, def)+1e-9 {
		t.Fatalf("RAHTM MCL %v worse than default %v", MCL(tp, g, mapping), MCL(tp, g, def))
	}

	// 5. ...and the packet simulator must agree (or at least not invert a
	// decisive analytic win).
	if MCL(tp, g, def) > 1.3*MCL(tp, g, mapping) {
		cfg := PacketSimConfig{Seed: 7, InjectionRate: 64}
		rOpt, err := PacketSimulateCtx(context.Background(), tp, g, mapping, cfg)
		if err != nil {
			t.Fatal(err)
		}
		rDef, err := PacketSimulateCtx(context.Background(), tp, g, def, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if rOpt.Cycles > rDef.Cycles {
			t.Fatalf("packet sim inverted the win: %d vs %d cycles", rOpt.Cycles, rDef.Cycles)
		}
	}
}

func TestEndToEndSuiteConsistency(t *testing.T) {
	// The comparison engine, the metrics facade, and the netsim model must
	// tell one coherent story for the whole suite.
	tp := NewTorus(4, 4)
	ws, err := Suite(64)
	if err != nil {
		t.Fatal(err)
	}
	ms := []ProcMapper{DefaultMapper(tp), NewHilbert(), NewRHT(), NewRecursiveBisection(), Mapper{}}
	cs, err := CompareSuiteCtx(context.Background(), ws, tp, 4, ms, Model{})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range cs[:len(ws)] {
		for _, r := range c.Rows {
			if r.Err != "" {
				t.Fatalf("%s/%s failed: %s", c.Workload, r.Mapper, r.Err)
			}
			// Relative comm must match the MCL ratio when link time
			// dominates; at minimum it must be positive and finite.
			if r.RelComm <= 0 || math.IsInf(r.RelComm, 0) || math.IsNaN(r.RelComm) {
				t.Fatalf("%s/%s bad RelComm %v", c.Workload, r.Mapper, r.RelComm)
			}
		}
		// RAHTM is the last row and must be the best or tied-best mapper.
		rahtmRow := c.Rows[len(c.Rows)-1]
		for _, r := range c.Rows[:len(c.Rows)-1] {
			if rahtmRow.RelComm > r.RelComm+1e-9 {
				t.Fatalf("%s: RAHTM (%v) beaten by %s (%v)", c.Workload, rahtmRow.RelComm, r.Mapper, r.RelComm)
			}
		}
	}
}

func TestEndToEndAllWorkloadGenerators(t *testing.T) {
	// Every generator must produce a mappable workload on a matched torus.
	tp := NewTorus(4, 4)
	spectral, err := Spectral(4, 4, 2)
	if err != nil {
		t.Fatal(err)
	}
	manyToOne, err := ManyToOne(16, 4, 3)
	if err != nil {
		t.Fatal(err)
	}
	cases := []*Workload{
		Halo2D(4, 4, 1),
		Transpose(4, 2),
		Sweep(4, 4, 2),
		spectral,
		manyToOne,
		Ring(16, 1),
		RandomNeighbors(16, 3, 1, 5),
	}
	for _, w := range cases {
		m, err := Mapper{}.MapProcs(w, tp, 1)
		if err != nil {
			t.Fatalf("%s: %v", w.Name, err)
		}
		if err := m.Validate(tp.N(), true); err != nil {
			t.Fatalf("%s: %v", w.Name, err)
		}
		def, err := DefaultMapper(tp).MapProcs(w, tp, 1)
		if err != nil {
			t.Fatalf("%s: %v", w.Name, err)
		}
		if MCL(tp, w.Graph, m) > MCL(tp, w.Graph, def)+1e-9 {
			t.Fatalf("%s: RAHTM %v worse than default %v", w.Name,
				MCL(tp, w.Graph, m), MCL(tp, w.Graph, def))
		}
	}
}

func TestEndToEndConcentratedNASRun(t *testing.T) {
	// The headline configuration shape at small scale: each benchmark,
	// concentration > 1, RAHTM vs default, exec time via Figure 9 fractions.
	tp := NewTorus(4, 4)
	for _, name := range []string{"BT", "SP", "CG"} {
		w, err := WorkloadByName(name, 64)
		if err != nil {
			t.Fatal(err)
		}
		cmp, err := CompareCtx(context.Background(), w, tp, 4, []ProcMapper{DefaultMapper(tp), Mapper{}}, Model{})
		if err != nil {
			t.Fatal(err)
		}
		rahtmRow := cmp.Rows[1]
		if rahtmRow.RelComm > 1+1e-9 {
			t.Fatalf("%s: RAHTM relComm %v", name, rahtmRow.RelComm)
		}
		// Amdahl: exec improvement is bounded by the comm fraction.
		if rahtmRow.RelExec < 1-w.CommFraction-1e-9 {
			t.Fatalf("%s: exec improvement %v exceeds the communication share %v",
				name, 1-rahtmRow.RelExec, w.CommFraction)
		}
	}
}

func TestEndToEndOtherTopologies(t *testing.T) {
	// The §VI topology extensions end to end: the same workload, three
	// interconnects, all improved by their RAHTM variant.
	w := Halo2D(8, 8, 10)

	ft, err := NewFatTree(4, 3)
	if err != nil {
		t.Fatal(err)
	}
	fm, err := ft.Map(w.Graph, w.Grid)
	if err != nil {
		t.Fatal(err)
	}
	fOpt, _ := ft.SwitchMCL(w.Graph, fm, FatTreeECMP)
	fID, _ := ft.SwitchMCL(w.Graph, Identity(64), FatTreeECMP)
	if fOpt > fID {
		t.Fatalf("fat tree: mapped %v worse than identity %v", fOpt, fID)
	}

	df, err := NewDragonfly(4, 4, 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	dm, err := df.Map(w.Graph, w.Grid)
	if err != nil {
		t.Fatal(err)
	}
	dOpt, _ := df.MCL(w.Graph, dm, DragonflyMinimal)
	dID, _ := df.MCL(w.Graph, Identity(64), DragonflyMinimal)
	if dOpt > dID {
		t.Fatalf("dragonfly: mapped %v worse than identity %v", dOpt, dID)
	}

	tp := NewTorus(4, 4, 4)
	tm, err := Mapper{}.MapProcs(w, tp, 1)
	if err != nil {
		t.Fatal(err)
	}
	if MCL(tp, w.Graph, tm) > MCL(tp, w.Graph, Identity(64)) {
		t.Fatal("torus: mapped worse than identity")
	}
}

func ExampleMapper_MapProcs() {
	t := NewTorus(2, 2)
	w := Halo2D(2, 2, 10)
	m, err := Mapper{}.MapProcs(w, t, 1)
	if err != nil {
		panic(err)
	}
	fmt.Println(len(m) == t.N())
	// Output: true
}
