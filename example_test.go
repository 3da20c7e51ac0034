package rahtm_test

// Testable examples documenting the public API end to end.

import (
	"context"
	"fmt"
	"strings"

	"rahtm"
)

// ExampleMCL reproduces the paper's Figure 1 numerically: under minimal
// adaptive routing, the diagonal placement of a heavy pair halves the
// hottest link relative to the adjacent placement that hop-bytes prefers.
func ExampleMCL() {
	b := rahtm.NewGraph(4)
	b.AddTraffic(0, 1, 10)
	g := b.Build()

	t := rahtm.NewMesh(2, 2)
	adjacent := rahtm.Mapping{0, 1, 2, 3}
	diagonal := rahtm.Mapping{0, 3, 1, 2}

	fmt.Printf("adjacent MCL %v, diagonal MCL %v\n",
		rahtm.MCL(t, g, adjacent), rahtm.MCL(t, g, diagonal))
	// Output: adjacent MCL 10, diagonal MCL 5
}

// ExampleCompareCtx runs the Figure 10 engine on one benchmark.
func ExampleCompareCtx() {
	t := rahtm.NewTorus(4, 4)
	w, _ := rahtm.CG(64)
	ms := []rahtm.ProcMapper{rahtm.DefaultMapper(t), rahtm.Mapper{}}
	cmp, err := rahtm.CompareCtx(context.Background(), w, t, 4, ms, rahtm.Model{})
	if err != nil {
		panic(err)
	}
	fmt.Printf("baseline %s, challenger %s: improves=%v\n",
		cmp.Rows[0].Mapper, cmp.Rows[1].Mapper, cmp.Rows[1].RelComm <= 1)
	// Output: baseline ABT, challenger RAHTM: improves=true
}

// ExampleAddCollective expands a collective implementation into mappable
// point-to-point traffic (the paper's §VI extension).
func ExampleAddCollective() {
	b := rahtm.NewGraph(8)
	if err := rahtm.AddCollective(b, rahtm.AllReduceRecursiveDoubling, nil, 100); err != nil {
		panic(err)
	}
	g := b.Build()
	// log2(8) = 3 stages of 100 bytes per process.
	fmt.Println(g.OutVolume(0))
	// Output: 300
}

// ExampleParseProfile ingests an IPM-style communication profile and maps
// it.
func ExampleParseProfile() {
	profile := "procs 4\np2p 0 1 500\ncoll allreduce-ring 100 all\n"
	p, err := rahtm.ParseProfile(strings.NewReader(profile))
	if err != nil {
		panic(err)
	}
	g, err := p.Graph()
	if err != nil {
		panic(err)
	}
	fmt.Println(g.N(), g.Traffic(0, 1) > 500)
	// Output: 4 true
}

// ExampleWorkload_WithCollective composes application and collective
// traffic into one mapping problem.
func ExampleWorkload_WithCollective() {
	w, _ := rahtm.CG(16)
	w2, err := w.WithCollective(rahtm.AllReduceRing, 50)
	if err != nil {
		panic(err)
	}
	fmt.Println(w2.Graph.TotalVolume() > w.Graph.TotalVolume())
	// Output: true
}
