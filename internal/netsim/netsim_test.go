package netsim

import (
	"math"
	"testing"

	"rahtm/internal/graph"
	"rahtm/internal/routing"
	"rahtm/internal/topology"
)

func TestCommTimeLinkBound(t *testing.T) {
	tp := topology.NewMesh(2)
	b := graph.New(2)
	b.AddTraffic(0, 1, 2e9) // 2 GB over a 2 GB/s link = 1 s
	g := b.Build()
	rep, err := CommTime(tp, g, topology.Identity(2), Model{})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(rep.LinkTime-1) > 1e-9 {
		t.Fatalf("link time = %v, want 1", rep.LinkTime)
	}
	if rep.Time < rep.LinkTime {
		t.Fatal("total time below link time")
	}
	if rep.MCL != 2e9 {
		t.Fatalf("MCL = %v", rep.MCL)
	}
}

func TestCommTimeInjectionBound(t *testing.T) {
	// One node fans out to many: with a high link bandwidth the injection
	// term dominates.
	tp := topology.NewTorus(4)
	b := graph.New(4)
	b.AddTraffic(0, 1, 1e9)
	b.AddTraffic(0, 2, 1e9)
	b.AddTraffic(0, 3, 1e9)
	g := b.Build()
	rep, err := CommTime(tp, g, topology.Identity(4), Model{
		LinkBandwidth:      1e12,
		InjectionBandwidth: 1e9,
	})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(rep.InjectionTime-3) > 1e-9 {
		t.Fatalf("injection time = %v, want 3", rep.InjectionTime)
	}
	if math.Abs(rep.Time-3) > 1e-9 {
		t.Fatalf("time = %v, want 3 (injection bound)", rep.Time)
	}
}

func TestCommTimeColocatedFree(t *testing.T) {
	tp := topology.NewMesh(2)
	b := graph.New(4)
	b.AddTraffic(0, 1, 1e12)
	g := b.Build()
	rep, err := CommTime(tp, g, topology.Mapping{0, 0, 0, 1}, Model{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Time != 0 {
		t.Fatalf("co-located traffic cost %v, want 0", rep.Time)
	}
}

func TestCommTimeMappingMismatch(t *testing.T) {
	tp := topology.NewMesh(2)
	g := graph.New(3).Build()
	if _, err := CommTime(tp, g, topology.Mapping{0, 1}, Model{}); err == nil {
		t.Fatal("expected error")
	}
}

func TestCalibrationMatchesTargetFraction(t *testing.T) {
	cal, err := Calibrate(2.0, 0.35)
	if err != nil {
		t.Fatal(err)
	}
	if f := cal.CommFraction(2.0); math.Abs(f-0.35) > 1e-12 {
		t.Fatalf("calibrated fraction = %v, want 0.35", f)
	}
	// Halving communication time improves execution by Amdahl's law:
	// speedup = 1 / (0.65 + 0.35/2) = 1.212...
	base := cal.ExecTime(2.0)
	fast := cal.ExecTime(1.0)
	wantRatio := 0.65 + 0.35/2
	if math.Abs(fast/base-wantRatio) > 1e-12 {
		t.Fatalf("exec ratio = %v, want %v", fast/base, wantRatio)
	}
}

func TestCalibrationErrors(t *testing.T) {
	if _, err := Calibrate(1, 0); err == nil {
		t.Fatal("fraction 0 should fail")
	}
	if _, err := Calibrate(1, 1); err == nil {
		t.Fatal("fraction 1 should fail")
	}
	if _, err := Calibrate(-1, 0.5); err == nil {
		t.Fatal("negative baseline should fail")
	}
}

func TestModelDefaults(t *testing.T) {
	m := Model{}.WithDefaults()
	if m.LinkBandwidth != 2e9 || m.InjectionBandwidth != 8e9 || m.EjectionBandwidth != 8e9 {
		t.Fatalf("defaults = %+v", m)
	}
	if m.Routing == nil || m.Routing.Name() != (routing.MinimalAdaptive{}).Name() {
		t.Fatal("default routing should be minimal adaptive")
	}
}

func TestCommFractionZeroTotal(t *testing.T) {
	cal := Calibration{CompTime: 0}
	if cal.CommFraction(0) != 0 {
		t.Fatal("zero total should give zero fraction")
	}
}
