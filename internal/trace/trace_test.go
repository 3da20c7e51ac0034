package trace

import (
	"bytes"
	"math"
	"strings"
	"testing"

	"rahtm/internal/collective"
	"rahtm/internal/graph"
)

const sample = `# IPM-like profile
procs 8
p2p 0 1 1024 4
p2p 1 0 1024
coll allreduce-recursive-doubling 4096 all
coll broadcast-binomial 512 0 1 2 3
`

func TestParseSample(t *testing.T) {
	p, err := Parse(strings.NewReader(sample))
	if err != nil {
		t.Fatal(err)
	}
	if p.Procs != 8 || len(p.P2Ps) != 2 || len(p.Colls) != 2 {
		t.Fatalf("profile = %+v", p)
	}
	if p.P2Ps[0].Count != 4 || p.P2Ps[1].Count != 1 {
		t.Fatalf("counts = %+v", p.P2Ps)
	}
	if p.Colls[0].Ranks != nil {
		t.Fatal("'all' should parse to nil ranks")
	}
	if len(p.Colls[1].Ranks) != 4 {
		t.Fatalf("subset ranks = %v", p.Colls[1].Ranks)
	}
}

func TestGraphExpansion(t *testing.T) {
	p, err := Parse(strings.NewReader(sample))
	if err != nil {
		t.Fatal(err)
	}
	g, err := p.Graph()
	if err != nil {
		t.Fatal(err)
	}
	// p2p: 0->1 carries 1024*4, plus allreduce stage-1 partner traffic
	// 4096, plus the broadcast tree edge 0->1 of 512.
	if v := g.Traffic(0, 1); math.Abs(v-(1024*4+4096+512)) > 1e-9 {
		t.Fatalf("traffic(0,1) = %v", v)
	}
	// Allreduce reaches distance-4 partners.
	if g.Traffic(0, 4) != 4096 {
		t.Fatalf("allreduce partner traffic = %v", g.Traffic(0, 4))
	}
	// Broadcast subtree stays within ranks 0..3.
	if g.Traffic(0, 2) == 0 {
		t.Fatal("broadcast edge missing")
	}
}

func TestGraphUnknownCollective(t *testing.T) {
	p := &Profile{Procs: 4, Colls: []Coll{{Op: "bogus", Bytes: 1}}}
	if _, err := p.Graph(); err == nil {
		t.Fatal("unknown collective should fail at expansion")
	}
}

func TestParseErrors(t *testing.T) {
	cases := []string{
		"",
		"p2p 0 1 10\n",
		"procs x\n",
		"procs 4294967296\n",
		"procs 4\nprocs 4\n",
		"procs 4\np2p 0 1\n",
		"procs 4\np2p a b c\n",
		"procs 4\np2p 0 9 10\n",
		"procs 4\np2p 0 1 10 0\n",
		"procs 4\ncoll allreduce-recursive-doubling\n",
		"procs 4\ncoll x y all\n",
		"procs 4\ncoll allreduce-recursive-doubling 10 a b\n",
		"procs 4\nwhat 1 2\n",
	}
	for _, c := range cases {
		if _, err := Parse(strings.NewReader(c)); err == nil {
			t.Fatalf("Parse(%q) succeeded, want error", c)
		}
	}
}

func TestRoundTrip(t *testing.T) {
	p, err := Parse(strings.NewReader(sample))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := p.Write(&buf); err != nil {
		t.Fatal(err)
	}
	q, err := Parse(&buf)
	if err != nil {
		t.Fatalf("reparse: %v\n%s", err, buf.String())
	}
	ga, err := p.Graph()
	if err != nil {
		t.Fatal(err)
	}
	gb, err := q.Graph()
	if err != nil {
		t.Fatal(err)
	}
	if !ga.Equal(gb, 1e-9) {
		t.Fatal("round trip changed the expanded graph")
	}
}

func TestFromGraph(t *testing.T) {
	b := graph.New(4)
	b.AddTraffic(0, 3, 7.5)
	b.AddTraffic(2, 1, 3)
	g := b.Build()
	p := FromGraph(g)
	if p.Procs != 4 || len(p.P2Ps) != 2 {
		t.Fatalf("profile = %+v", p)
	}
	back, err := p.Graph()
	if err != nil {
		t.Fatal(err)
	}
	if !g.Equal(back, 1e-12) {
		t.Fatal("FromGraph/Graph round trip failed")
	}
}

func TestSubsetCollectiveStaysLocal(t *testing.T) {
	in := "procs 8\ncoll allreduce-ring 100 4 5 6 7\n"
	p, err := Parse(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	g, err := p.Graph()
	if err != nil {
		t.Fatal(err)
	}
	for r := 0; r < 4; r++ {
		if g.OutVolume(r) != 0 {
			t.Fatalf("rank %d outside communicator has traffic", r)
		}
	}
	if g.OutVolume(5) == 0 {
		t.Fatal("communicator member silent")
	}
	_ = collective.OpAllReduceRing
}

// TestNonFiniteVolumesRejected: volumes that are NaN or infinite, as
// written or as bytes x count, fail Parse with the line named, and volumes
// that overflow only once expanded or summed fail Graph.
func TestNonFiniteVolumesRejected(t *testing.T) {
	for _, c := range []struct{ in, line string }{
		{"procs 4\np2p 0 1 nan\n", "line 2"},
		{"procs 4\np2p 0 1 inf\n", "line 2"},
		{"procs 4\n# big\np2p 0 1 1e308 10\n", "line 3"},
		{"procs 4\ncoll allreduce-ring NaN all\n", "line 2"},
		{"procs 4\ncoll allreduce-ring +Inf 0 1\n", "line 2"},
	} {
		_, err := Parse(strings.NewReader(c.in))
		if err == nil || !strings.Contains(err.Error(), c.line) || !strings.Contains(err.Error(), "non-finite") {
			t.Errorf("Parse(%q): error %v, want a non-finite volume on %s", c.in, err, c.line)
		}
	}
	for _, in := range []string{
		"procs 4\np2p 0 1 1e308\np2p 0 1 1e308\n",
		"procs 4\ncoll allgather-recursive-doubling 1e308 all\n",
	} {
		p, err := Parse(strings.NewReader(in))
		if err != nil {
			t.Fatalf("Parse(%q): %v", in, err)
		}
		if _, err := p.Graph(); err == nil {
			t.Errorf("Graph of %q succeeded, want an overflow error", in)
		}
	}
}

// FuzzTraceParse checks Parse on arbitrary bytes: it never panics, and
// every graph a parsed profile expands to holds only finite, positive
// volumes. A profile that could expand to more than a few million edges is
// skipped: its size lies in the process count, not in the bytes.
func FuzzTraceParse(f *testing.F) {
	f.Fuzz(func(t *testing.T, in []byte) {
		p, err := Parse(bytes.NewReader(in))
		if err != nil {
			return
		}
		if p.Procs > 1<<12 || (len(p.Colls)+1)*p.Procs*p.Procs > 1<<22 {
			t.Skip("profile expands to too much traffic")
		}
		g, err := p.Graph()
		if err != nil {
			return
		}
		g.EachFlow(func(s, d int, vol float64) {
			if !(vol > 0) || math.IsInf(vol, 0) {
				t.Fatalf("Graph of %q: volume %v on %d->%d", in, vol, s, d)
			}
		})
	})
}
