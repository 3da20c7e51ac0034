package rahtm

// Benchmarks for the §VI extensions and the remaining ablations.

import (
	"context"
	"fmt"
	"testing"

	"rahtm/internal/packetsim"
	"rahtm/internal/topology"
)

// BenchmarkScalingStudy measures the offline mapping cost as the process
// count grows (the §V-B scaling discussion): 64 -> 256 -> 1024 processes.
func BenchmarkScalingStudy(b *testing.B) {
	cases := []struct {
		topo  *Torus
		procs int
		conc  int
	}{
		{NewTorus(4, 4), 64, 4},
		{NewTorus(4, 4, 4), 256, 4},
		{NewTorus(4, 4, 4, 4), 1024, 4},
	}
	for _, c := range cases {
		b.Run(fmt.Sprintf("procs=%d", c.procs), func(b *testing.B) {
			w, err := CG(c.procs)
			if err != nil {
				b.Fatal(err)
			}
			m := Mapper{}
			// Keep the largest case in seconds, like the bench default.
			if c.procs >= 1024 {
				m.Merge.BeamWidth = 16
				m.Merge.ChildCandidates = 2
				m.Merge.MaxOrientations = 96
			}
			var res *PipelineResult
			for i := 0; i < b.N; i++ {
				res, err = pipelineResult(context.Background(), m, w, c.topo, c.conc)
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(res.Stats.MapTime.Milliseconds()+res.Stats.MergeTime.Milliseconds()), "mapping-ms")
			b.ReportMetric(res.MCL, "MCL")
		})
	}
}

// BenchmarkPacketSimValidation runs the packet-level simulator on the CG
// pattern under the default and RAHTM mappings, reporting completion
// cycles — the non-analytic confirmation of Figure 10's ordering.
func BenchmarkPacketSimValidation(b *testing.B) {
	t := NewTorus(4, 4)
	w, err := CG(64)
	if err != nil {
		b.Fatal(err)
	}
	def, err := DefaultMapper(t).MapProcs(w, t, 4)
	if err != nil {
		b.Fatal(err)
	}
	opt, err := (Mapper{}).MapProcs(w, t, 4)
	if err != nil {
		b.Fatal(err)
	}
	cfg := packetsim.Config{Seed: 1, InjectionRate: 64, PacketBytes: 10}
	for _, c := range []struct {
		name string
		m    topology.Mapping
	}{{"default", def}, {"RAHTM", opt}} {
		b.Run(c.name, func(b *testing.B) {
			var cycles int
			for i := 0; i < b.N; i++ {
				res, err := PacketSimulateCtx(context.Background(), t, w.Graph, c.m, cfg)
				if err != nil {
					b.Fatal(err)
				}
				cycles = res.Cycles
			}
			b.ReportMetric(float64(cycles), "cycles")
		})
	}
}

// BenchmarkFatTreeMapping measures the fat-tree variant's mapping cost and
// quality.
func BenchmarkFatTreeMapping(b *testing.B) {
	ft, err := NewFatTree(4, 3)
	if err != nil {
		b.Fatal(err)
	}
	w := Halo2D(8, 8, 10)
	var mcl float64
	for i := 0; i < b.N; i++ {
		m, err := ft.Map(w.Graph, w.Grid)
		if err != nil {
			b.Fatal(err)
		}
		mcl, err = ft.SwitchMCL(w.Graph, m, FatTreeECMP)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(mcl, "switch-MCL")
}

// BenchmarkDragonflyMapping measures the dragonfly variant.
func BenchmarkDragonflyMapping(b *testing.B) {
	df, err := NewDragonfly(4, 4, 4, 1)
	if err != nil {
		b.Fatal(err)
	}
	w := Halo2D(8, 8, 10)
	var mcl float64
	for i := 0; i < b.N; i++ {
		m, err := df.Map(w.Graph, w.Grid)
		if err != nil {
			b.Fatal(err)
		}
		mcl, err = df.MCL(w.Graph, m, DragonflyMinimal)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(mcl, "MCL")
}

// BenchmarkAblationClustering compares tiling clustering (the paper's
// choice, §III-B: simple tiling "preserved the structure of the
// communication pattern") against heavy-edge greedy clustering in the full
// pipeline.
func BenchmarkAblationClustering(b *testing.B) {
	t := NewTorus(4, 4)
	w, err := BT(64)
	if err != nil {
		b.Fatal(err)
	}
	for _, c := range []struct {
		name string
		grid []int
	}{{"tiling", w.Grid}, {"greedy", nil}} {
		b.Run(c.name, func(b *testing.B) {
			wc := *w
			wc.Grid = c.grid
			var mcl float64
			for i := 0; i < b.N; i++ {
				mp, err := (Mapper{}).MapProcs(&wc, t, 4)
				if err != nil {
					b.Fatal(err)
				}
				mcl = MCL(t, w.Graph, mp)
			}
			b.ReportMetric(mcl, "MCL")
		})
	}
}

// BenchmarkCollectiveExpansion measures profile/collective expansion cost.
func BenchmarkCollectiveExpansion(b *testing.B) {
	for i := 0; i < b.N; i++ {
		g := NewGraph(1024)
		if err := AddCollective(g, AllReduceRecursiveDoubling, nil, 100); err != nil {
			b.Fatal(err)
		}
		if err := AddCollective(g, AllGatherDissemination, nil, 10); err != nil {
			b.Fatal(err)
		}
		g.Build()
	}
}
