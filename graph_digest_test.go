package rahtm

import (
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"strings"
	"testing"

	"rahtm/internal/collective"
	"rahtm/internal/graph"
	"rahtm/internal/mappers"
	"rahtm/internal/topology"
	"rahtm/internal/trace"
	"rahtm/internal/workload"
)

// graphDigest hashes a graph's CSR form as the public accessors expose it:
// the vertex count, every row offset, every column, every volume's bits and
// the structural hash.
func graphDigest(g *graph.Comm) string {
	h := fnv.New64a()
	var buf [8]byte
	put := func(v uint64) {
		for i := range buf {
			buf[i] = byte(v >> (8 * i))
		}
		h.Write(buf[:])
	}
	put(uint64(g.N()))
	off := 0
	for s := 0; s < g.N(); s++ {
		put(uint64(off))
		dsts, vols := g.Edges(s)
		for i, d := range dsts {
			put(uint64(d))
			put(math.Float64bits(vols[i]))
		}
		off += len(dsts)
	}
	put(uint64(off))
	put(g.StructuralHash())
	return fmt.Sprintf("%016x", h.Sum64())
}

// shuffledGraphText writes g in the graph text format with every volume
// split over two duplicate lines of unequal parts, the lines in seeded
// random order, so Read sums the duplicates in an order that is neither
// the file's nor the graph's.
func shuffledGraphText(g *graph.Comm, seed int64) string {
	var lines []string
	g.EachFlow(func(s, d int, vol float64) {
		lines = append(lines, fmt.Sprintf("%d %d %g", s, d, vol/3), fmt.Sprintf("%d %d %g", s, d, vol*2/3))
	})
	rand.New(rand.NewSource(seed)).Shuffle(len(lines), func(i, j int) { lines[i], lines[j] = lines[j], lines[i] })
	return fmt.Sprintf("comm %d\n%s\n", g.N(), strings.Join(lines, "\n"))
}

// digestTrace is a profile with duplicate p2p pairs (adjacent and apart,
// with and without counts), a self record, and collectives over all ranks
// and over a sub-communicator.
const digestTrace = `procs 16
p2p 0 1 100 2
p2p 0 1 0.1 3
p2p 3 2 7.5
p2p 5 5 10
p2p 9 4 0.3
p2p 0 1 0.2
p2p 9 4 0.7 7
coll allreduce-recursive-doubling 1.7 all
coll allgather-dissemination 2.5 0 3 5 7 9
coll alltoall-pairwise 0.9 all
p2p 3 2 1e-3
`

// digestGraphs lists every graph the digest covers, by name: each producer
// of communication graphs the pipeline reads.
func digestGraphs(t *testing.T) map[string]*graph.Comm {
	t.Helper()
	out := make(map[string]*graph.Comm)
	add := func(name string, w *workload.Workload, err error) {
		t.Helper()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		out[name] = w.Graph
	}
	for _, name := range []string{"BT", "SP", "CG"} {
		for _, procs := range []int{64, 1024} {
			w, err := workload.ByName(name, procs)
			add(fmt.Sprintf("%s-%d", name, procs), w, err)
		}
	}
	add("halo2d-64x64", workload.Halo2D(64, 64, 10), nil)
	add("halo3d-16x16x16", workload.Halo3D(16, 16, 16, 10), nil)
	add("random-256", workload.RandomNeighbors(256, 4, 10, 1), nil)
	add("ring-100", workload.Ring(100, 2.5), nil)
	add("transpose-12", workload.Transpose(12, 3), nil)
	add("sweep-9x7", workload.Sweep(9, 7, 1.25), nil)
	w, err := workload.Spectral(8, 16, 0.7)
	add("spectral-8x16", w, err)
	w, err = workload.ManyToOne(96, 8, 4.5)
	add("manytoone-96", w, err)

	base := workload.Halo2D(8, 8, 1.1)
	for _, op := range collective.Ops() {
		w, err := base.WithCollective(op, 3.3)
		add("world-"+string(op), w, err)
		w, err = base.WithRowCollectives(op, 0.37)
		add("rows-"+string(op), w, err)
	}
	for _, op := range []collective.Op{collective.OpAllReduceRing, collective.OpAllReduceRD} {
		w, err := workload.AllReduceJob(32, 1.9, op)
		add("job-"+string(op), w, err)
	}
	cg, err := workload.CG(64)
	if err != nil {
		t.Fatal(err)
	}
	tr := workload.Transpose(8, 0.3)
	p, err := workload.NewPhased("phased", workload.Halo2D(8, 8, 0.1), cg, tr, workload.Halo2D(8, 8, 0.2))
	if err != nil {
		t.Fatal(err)
	}
	out["phased-union"] = p.Union()

	prof, err := trace.Parse(strings.NewReader(digestTrace))
	if err != nil {
		t.Fatal(err)
	}
	if out["trace"], err = prof.Graph(); err != nil {
		t.Fatal(err)
	}

	m := make(topology.Mapping, cg.Procs())
	for p := range m {
		m[p] = (p * 5) % 16 // four processes per node
	}
	out["nodegraph-CG-64"] = mappers.NodeGraph(cg.Graph, m, 16)

	src := workload.RandomNeighbors(512, 6, 7, 3).Graph
	if out["read-shuffled"], err = graph.Read(strings.NewReader(shuffledGraphText(src, 4))); err != nil {
		t.Fatal(err)
	}
	return out
}

// graphDigests pins graphDigest per producer. The values were recorded
// when the maps-then-Freeze builder still existed, so they hold every
// later graph form to that builder's rows and bits.
var graphDigests = map[string]string{
	"BT-1024":                            "d8effc5992128080",
	"BT-64":                              "f830ed737f2525d7",
	"CG-1024":                            "93c5dd08c37e7a43",
	"CG-64":                              "d4e082612491b61a",
	"SP-1024":                            "698502ec7783c13e",
	"SP-64":                              "6063424a94f2a3d4",
	"halo2d-64x64":                       "3e81efbd32ee7260",
	"halo3d-16x16x16":                    "445c748b8f402054",
	"job-allreduce-recursive-doubling":   "e54c2d8c4f77e6a8",
	"job-allreduce-ring":                 "1d7cf572caf1a2b3",
	"manytoone-96":                       "b036c5975bc636ba",
	"nodegraph-CG-64":                    "21b24281acfa72c8",
	"phased-union":                       "e73a0bd8377976e1",
	"random-256":                         "1e11ab884a36d935",
	"read-shuffled":                      "4bd56326374103e7",
	"ring-100":                           "147cdd544e6ad221",
	"rows-allgather-dissemination":       "a4de2d46df54a47e",
	"rows-allgather-recursive-doubling":  "ddf78e40df42e19a",
	"rows-allreduce-recursive-doubling":  "83265a1165edc11f",
	"rows-allreduce-ring":                "9cf13d883e3cab68",
	"rows-alltoall-pairwise":             "89e3aa3c5aea0994",
	"rows-broadcast-binomial":            "7009ab368b145c04",
	"rows-reduce-binomial":               "05a4efae9b8d312f",
	"rows-reducescatter-ring":            "c26cdc09ec3c2b77",
	"spectral-8x16":                      "2b35622698dfb91a",
	"sweep-9x7":                          "af7187be737ab8a0",
	"trace":                              "7c168ffed8960abb",
	"transpose-12":                       "f0ae1e6660f2705e",
	"world-allgather-dissemination":      "fc28ed37f3788cba",
	"world-allgather-recursive-doubling": "c8c004f5cd5b3ad3",
	"world-allreduce-recursive-doubling": "302387f6ae2fb904",
	"world-allreduce-ring":               "0d816470fc0fd779",
	"world-alltoall-pairwise":            "21af142951953bde",
	"world-broadcast-binomial":           "1bfd34944aa7017a",
	"world-reduce-binomial":              "c6e56684bf76092e",
	"world-reducescatter-ring":           "94261cd19427b28d",
}

// requestKeys pins Request.Key for each named workload a request can ask
// for, on one topology each.
var requestKeys = map[string]string{
	"BT":     "9ef1d3eebab814c6",
	"CG":     "dc48c1623f8a73e5",
	"SP":     "f7bff60265c24933",
	"halo2d": "44ee299133019d70",
	"halo3d": "b91be2ad42693215",
	"random": "36c777d3fc0c2016",
}

// keyRequests are the requests whose keys requestKeys pins.
func keyRequests() map[string]Request {
	return map[string]Request{
		"BT":     {Workload: "BT", Topo: []int{4, 4, 4}, Conc: 4},
		"SP":     {Workload: "SP", Topo: []int{4, 4}, Conc: 4},
		"CG":     {Workload: "CG", Topo: []int{4, 4, 4, 4}, Conc: 16},
		"halo2d": {Workload: "halo2d", Grid: []int{64, 64}, Topo: []int{4, 4, 4, 4}, Conc: 16},
		"halo3d": {Workload: "halo3d", Grid: []int{16, 16, 16}, Topo: []int{4, 4, 4, 4}, Conc: 16},
		"random": {Workload: "random", Topo: []int{8, 8}, Conc: 2, Mesh: true},
	}
}

// TestGraphBuildDigest checks every graph producer against digests pinned
// on the map-backed builder, and the cache key of every named workload.
func TestGraphBuildDigest(t *testing.T) {
	got := digestGraphs(t)
	for name, g := range got {
		want, ok := graphDigests[name]
		if d := graphDigest(g); !ok || d != want {
			t.Errorf("%s: digest %s, pinned %q", name, d, want)
		}
	}
	for name := range graphDigests {
		if got[name] == nil {
			t.Errorf("%s: pinned but not built", name)
		}
	}
	for name, req := range keyRequests() {
		k, err := req.Key()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if want := requestKeys[name]; k != want {
			t.Errorf("%s: key %s, pinned %q", name, k, want)
		}
	}
	if len(requestKeys) != len(keyRequests()) {
		t.Errorf("%d keys pinned for %d requests", len(requestKeys), len(keyRequests()))
	}
}
