package main

import "testing"

func TestParseTopo(t *testing.T) {
	tp, err := parseTopo("4x4x4x4x2")
	if err != nil {
		t.Fatal(err)
	}
	if tp.N() != 512 || tp.NumDims() != 5 {
		t.Fatalf("parsed %v", tp)
	}
	tp, err = parseTopo(" 8X2 ")
	if err != nil {
		t.Fatal(err)
	}
	if tp.N() != 16 {
		t.Fatalf("parsed %v", tp)
	}
	for _, bad := range []string{"", "4x", "axb", "4x0", "-2"} {
		if _, err := parseTopo(bad); err == nil {
			t.Fatalf("parseTopo(%q) should fail", bad)
		}
	}
	// Every scale-ladder rung names a torus that holds its processes.
	for _, lvl := range scaleLadder {
		tp, err := parseTopo(lvl.topo)
		if err != nil {
			t.Fatalf("rung %d: %v", lvl.procs, err)
		}
		if tp.N()*lvl.conc != lvl.procs || lvl.rows*lvl.cols != lvl.procs {
			t.Fatalf("rung %d: %v x %d, grid %dx%d", lvl.procs, tp, lvl.conc, lvl.rows, lvl.cols)
		}
	}
}
