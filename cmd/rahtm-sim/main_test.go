package main

import (
	"os"
	"path/filepath"
	"testing"

	"rahtm"
)

func TestReadMapFile(t *testing.T) {
	dir := t.TempDir()
	topo := rahtm.NewTorus(2, 2)
	path := filepath.Join(dir, "test.map")
	if err := os.WriteFile(path, []byte("# header\n0\n1\n\n2\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	m, err := readMapFileTopo(path, topo)
	if err != nil {
		t.Fatal(err)
	}
	if len(m) != 3 || m[0] != 0 || m[2] != 2 {
		t.Fatalf("mapping = %v", m)
	}
	coords := filepath.Join(dir, "coords.map")
	if err := os.WriteFile(coords, []byte("0 0 0\n1 1 0\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if m, err = readMapFileTopo(coords, topo); err != nil || len(m) != 2 || m[1] != 3 {
		t.Fatalf("coordinate mapping = %v, %v", m, err)
	}
	for name, body := range map[string]string{
		"bad.map":   "zero\n",
		"range.map": "0\n4\n",
	} {
		bad := filepath.Join(dir, name)
		if err := os.WriteFile(bad, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := readMapFileTopo(bad, topo); err == nil {
			t.Fatalf("%s should fail", name)
		}
	}
	if _, err := readMapFileTopo(filepath.Join(dir, "missing.map"), topo); err == nil {
		t.Fatal("missing file should fail")
	}
}

// TestSimBuildWorkload checks the workloads the flags describe, built
// through newRequest and Request.Materialize.
func TestSimBuildWorkload(t *testing.T) {
	build := func(workload, grid, topo string, procs, conc int) (*rahtm.Workload, error) {
		req, err := newRequest(workload, grid, topo, procs, conc)
		if err != nil {
			return nil, err
		}
		w, _, err := req.Materialize()
		return w, err
	}
	w, err := build("BT", "", "4x4x4", 64, 1)
	if err != nil || w.Procs() != 64 {
		t.Fatalf("BT: %v", err)
	}
	w, err = build("halo3d", "4x4x4", "4x4", 0, 4)
	if err != nil || w.Procs() != 64 {
		t.Fatalf("halo3d: %v %v", w, err)
	}
	if _, err := build("halo2d", "", "4x4x4", 64, 1); err == nil {
		t.Fatal("halo2d without grid should fail")
	}
	if _, err := build("wat", "", "4x4x4", 64, 1); err == nil {
		t.Fatal("unknown workload should fail")
	}
	if _, err := build("BT", "", "4xx4", 64, 1); err == nil {
		t.Fatal("bad -topo should fail")
	}
}
