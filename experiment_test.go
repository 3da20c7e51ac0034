package rahtm

import (
	"context"
	"math"
	"strings"
	"testing"
)

func smallSuite(t *testing.T) ([]*Workload, *Torus, int) {
	t.Helper()
	ws, err := Suite(64)
	if err != nil {
		t.Fatal(err)
	}
	return ws, NewTorus(4, 4), 4
}

func TestCompareBasics(t *testing.T) {
	ws, tp, conc := smallSuite(t)
	ms := []ProcMapper{DefaultMapper(tp), NewHilbert(), Mapper{}}
	cmp, err := CompareCtx(context.Background(), ws[2], tp, conc, ms, Model{})
	if err != nil {
		t.Fatal(err)
	}
	if len(cmp.Rows) != 3 {
		t.Fatalf("rows = %d", len(cmp.Rows))
	}
	base := cmp.Rows[0]
	if base.RelComm != 1 || base.RelExec != 1 {
		t.Fatalf("baseline not normalized: %+v", base)
	}
	for _, r := range cmp.Rows {
		if r.Err != "" {
			t.Fatalf("%s failed: %s", r.Mapper, r.Err)
		}
		if r.CommTime <= 0 || r.ExecTime <= r.CommTime {
			t.Fatalf("times wrong: %+v", r)
		}
	}
	// Amdahl consistency: relExec = (1-f) + f*relComm for the calibrated
	// fraction f.
	f := ws[2].CommFraction
	for _, r := range cmp.Rows {
		want := (1 - f) + f*r.RelComm
		if math.Abs(r.RelExec-want) > 1e-9 {
			t.Fatalf("%s: relExec %v, Amdahl predicts %v", r.Mapper, r.RelExec, want)
		}
	}
}

func TestCompareRAHTMWins(t *testing.T) {
	ws, tp, conc := smallSuite(t)
	ms := []ProcMapper{DefaultMapper(tp), Mapper{}}
	for _, w := range ws {
		cmp, err := CompareCtx(context.Background(), w, tp, conc, ms, Model{})
		if err != nil {
			t.Fatal(err)
		}
		rahtmRow := cmp.Rows[1]
		if rahtmRow.RelComm > 1+1e-9 {
			t.Fatalf("%s: RAHTM relComm %v > 1 (must not lose to the default)", w.Name, rahtmRow.RelComm)
		}
	}
}

func TestCompareSuiteAddsGeomean(t *testing.T) {
	ws, tp, conc := smallSuite(t)
	ms := []ProcMapper{DefaultMapper(tp), Mapper{}}
	cs, err := CompareSuiteCtx(context.Background(), ws, tp, conc, ms, Model{})
	if err != nil {
		t.Fatal(err)
	}
	if len(cs) != len(ws)+1 {
		t.Fatalf("comparisons = %d", len(cs))
	}
	gm := cs[len(cs)-1]
	if gm.Workload != "geomean" {
		t.Fatalf("last comparison = %q", gm.Workload)
	}
	// Geomean of per-benchmark relComm values.
	prod := 1.0
	for _, c := range cs[:len(ws)] {
		prod *= c.Rows[1].RelComm
	}
	want := math.Pow(prod, 1/float64(len(ws)))
	if math.Abs(gm.Rows[1].RelComm-want) > 1e-9 {
		t.Fatalf("geomean = %v, want %v", gm.Rows[1].RelComm, want)
	}
}

func TestCompareFailingMapperRecorded(t *testing.T) {
	ws, tp, conc := smallSuite(t)
	bad := NewPermutation("ZZT") // invalid spec for this topology
	cmp, err := CompareCtx(context.Background(), ws[0], tp, conc, []ProcMapper{DefaultMapper(tp), bad}, Model{})
	if err != nil {
		t.Fatal(err)
	}
	if cmp.Rows[1].Err == "" {
		t.Fatal("failure not recorded")
	}
	// A failing baseline aborts.
	if _, err := CompareCtx(context.Background(), ws[0], tp, conc, []ProcMapper{bad}, Model{}); err == nil {
		t.Fatal("failing baseline should abort")
	}
}

func TestWriteTableModes(t *testing.T) {
	ws, tp, conc := smallSuite(t)
	cs, err := CompareSuiteCtx(context.Background(), ws[:1], tp, conc, []ProcMapper{DefaultMapper(tp), NewHilbert()}, Model{})
	if err != nil {
		t.Fatal(err)
	}
	for _, mode := range []string{"exec", "comm", "mcl"} {
		var sb strings.Builder
		if err := WriteTable(&sb, cs, mode); err != nil {
			t.Fatal(err)
		}
		out := sb.String()
		if !strings.Contains(out, "BT") || !strings.Contains(out, "Hilbert") {
			t.Fatalf("mode %s output missing content:\n%s", mode, out)
		}
	}
	if err := WriteTable(new(strings.Builder), cs, "nope"); err == nil {
		t.Fatal("bad mode should fail")
	}
	if err := WriteTable(new(strings.Builder), nil, "exec"); err != nil {
		t.Fatal("empty input should be a no-op")
	}
}

func TestCommFractionTableMatchesCalibration(t *testing.T) {
	ws, tp, conc := smallSuite(t)
	var sb strings.Builder
	if err := CommFractionTable(&sb, ws, tp, conc, DefaultMapper(tp), Model{}); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	// CG must show ~70% communication, BT/SP ~35% (Figure 9).
	if !strings.Contains(out, "70.0%") {
		t.Fatalf("CG fraction missing:\n%s", out)
	}
	if !strings.Contains(out, "35.0%") {
		t.Fatalf("BT/SP fraction missing:\n%s", out)
	}
}

func TestGeoMeanEmptyAndFailures(t *testing.T) {
	gm := GeoMean(nil)
	if gm.Workload != "geomean" || len(gm.Rows) != 0 {
		t.Fatalf("empty geomean = %+v", gm)
	}
	cs := []*Comparison{{
		Workload: "x",
		Rows:     []Row{{Mapper: "a", Err: "boom"}},
	}}
	gm = GeoMean(cs)
	if gm.Rows[0].Err == "" {
		t.Fatal("all-failure mapper should carry an error")
	}
}

func TestCompareNoMappers(t *testing.T) {
	ws, tp, conc := smallSuite(t)
	if _, err := CompareCtx(context.Background(), ws[0], tp, conc, nil, Model{}); err == nil {
		t.Fatal("expected error")
	}
}
