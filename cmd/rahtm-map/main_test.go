package main

import (
	"os"
	"path/filepath"
	"testing"

	"rahtm"
)

// TestParseDims checks the -topo and -grid specs newRequest parses.
func TestParseDims(t *testing.T) {
	req, err := newRequest("halo2d", "", "4x8", "16x16", 32, 1)
	if err != nil || len(req.Topo) != 2 || req.Topo[0] != 16 || req.Topo[1] != 16 {
		t.Fatalf("-topo 16x16: %v %v", req.Topo, err)
	}
	if len(req.Grid) != 2 || req.Grid[0] != 4 || req.Grid[1] != 8 {
		t.Fatalf("-grid 4x8: %v", req.Grid)
	}
	if req, err = newRequest("CG", "", "", " 8X2 ", 16, 1); err != nil || len(req.Topo) != 2 || req.Topo[0] != 8 || req.Grid != nil {
		t.Fatalf("-topo \" 8X2 \": %v %v %v", req.Topo, req.Grid, err)
	}
	if _, err := newRequest("CG", "", "", "x", 16, 1); err == nil {
		t.Fatal("bad -topo spec should fail")
	}
	if _, err := newRequest("halo2d", "", "4x0", "4x4", 16, 1); err == nil {
		t.Fatal("bad -grid spec should fail")
	}
}

func TestSelectMapper(t *testing.T) {
	topo := rahtm.NewTorus(4, 4, 4, 4, 4, 2)
	for _, name := range []string{"rahtm", "hilbert", "rht", "greedy", "random", "ABCDET"} {
		f, err := rahtm.MapperByName(name)
		if err != nil {
			t.Fatalf("MapperByName(%q): %v", name, err)
		}
		if f(topo) == nil {
			t.Fatalf("MapperByName(%q) factory returned nil", name)
		}
	}
}

// TestBuildWorkload checks the workloads the flags describe, built through
// newRequest and Request.Materialize.
func TestBuildWorkload(t *testing.T) {
	build := func(workload, graphIn, grid, topo string, procs, conc int) (*rahtm.Workload, error) {
		req, err := newRequest(workload, graphIn, grid, topo, procs, conc)
		if err != nil {
			return nil, err
		}
		w, _, err := req.Materialize()
		return w, err
	}
	w, err := build("CG", "", "", "4x4x4", 64, 1)
	if err != nil || w.Procs() != 64 {
		t.Fatalf("CG: %v %v", w, err)
	}
	w, err = build("halo2d", "", "4x8", "4x4", 32, 2)
	if err != nil || w.Procs() != 32 {
		t.Fatalf("halo2d: %v %v", w, err)
	}
	w, err = build("halo3d", "", "4x4x2", "4x4", 0, 2)
	if err != nil || w.Procs() != 32 {
		t.Fatalf("halo3d: %v %v", w, err)
	}
	if _, err := build("halo2d", "", "", "4x4", 32, 2); err == nil {
		t.Fatal("halo2d without grid should fail")
	}
	if _, err := build("", "", "", "4x4", 32, 2); err == nil {
		t.Fatal("empty workload should fail")
	}
	if _, err := build("nope", "", "", "4x4", 32, 2); err == nil {
		t.Fatal("unknown workload should fail")
	}
	if _, err := build("CG", "", "", "4x", 16, 1); err == nil {
		t.Fatal("bad -topo should fail")
	}
	if _, err := build("halo2d", "", "4x", "4x4", 16, 1); err == nil {
		t.Fatal("bad -grid should fail")
	}
	w, err = build("random", "", "", "4x4", 32, 2)
	if err != nil || w.Procs() != 32 {
		t.Fatalf("random: %v", err)
	}

	// A graph file becomes Request.Work, named by its path.
	path := filepath.Join(t.TempDir(), "ring.graph")
	if err := os.WriteFile(path, []byte("comm 4\n0 1 1\n1 2 1\n2 3 1\n3 0 1\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	w, err = build("", path, "", "2x2", 0, 1)
	if err != nil || w.Name != path || w.Procs() != 4 {
		t.Fatalf("graph: %v %v", w, err)
	}
	if _, err := build("", filepath.Join(t.TempDir(), "missing"), "", "2x2", 0, 1); err == nil {
		t.Fatal("missing graph file should fail")
	}
}
