package main

import (
	"os"
	"path/filepath"
	"testing"

	"rahtm"
)

func TestPrintStatsAndConversions(t *testing.T) {
	dir := t.TempDir()
	prof := filepath.Join(dir, "p.txt")
	if err := os.WriteFile(prof, []byte("procs 4\np2p 0 1 10\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	// Exercise the conversion helpers through the library the command uses.
	f, err := os.Open(prof)
	if err != nil {
		t.Fatal(err)
	}
	p, err := rahtm.ParseProfile(f)
	f.Close()
	if err != nil {
		t.Fatal(err)
	}
	g, err := p.Graph()
	if err != nil {
		t.Fatal(err)
	}
	printStats(g) // must not panic on tiny graphs
	printStats(rahtm.NewGraph(1).Build())

	// Round trip graph -> profile -> graph.
	out := filepath.Join(dir, "q.txt")
	fo, err := os.Create(out)
	if err != nil {
		t.Fatal(err)
	}
	if err := rahtm.ProfileFromGraph(g).Write(fo); err != nil {
		t.Fatal(err)
	}
	fo.Close()
	fi, err := os.Open(out)
	if err != nil {
		t.Fatal(err)
	}
	defer fi.Close()
	p2, err := rahtm.ParseProfile(fi)
	if err != nil {
		t.Fatal(err)
	}
	g2, err := p2.Graph()
	if err != nil {
		t.Fatal(err)
	}
	if !g.Equal(g2, 1e-9) {
		t.Fatal("round trip changed the graph")
	}
}
