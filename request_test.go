package rahtm

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"sync"
	"testing"

	"rahtm/internal/telemetry"
)

func TestRequestJSONRoundTrip(t *testing.T) {
	in := Request{
		Workload:    "CG",
		Procs:       64,
		Grid:        []int{8, 8},
		Topo:        []int{4, 4, 4},
		Mesh:        true,
		Conc:        1,
		Mapper:      "hilbert",
		DeadlineMS:  1500,
		Parallelism: 2,
		BeamWidth:   16,
	}
	b, err := json.Marshal(in)
	if err != nil {
		t.Fatal(err)
	}
	var out Request
	if err := json.Unmarshal(b, &out); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(in, out) {
		t.Fatalf("round trip lost fields:\n in: %+v\nout: %+v", in, out)
	}
	// The library-side escape hatches must never leak onto the wire.
	var raw map[string]any
	if err := json.Unmarshal(b, &raw); err != nil {
		t.Fatal(err)
	}
	for _, k := range []string{"Work", "Torus", "Config", "Observer", "work", "torus"} {
		if _, ok := raw[k]; ok {
			t.Errorf("non-wire field %q serialized: %s", k, b)
		}
	}
	if _, ok := raw["deadline_ms"]; !ok {
		t.Errorf("deadline_ms missing from wire form: %s", b)
	}
}

func TestRequestKey(t *testing.T) {
	base := Request{Workload: "CG", Topo: []int{4, 4}, Conc: 1}
	k1, err := base.Key()
	if err != nil {
		t.Fatal(err)
	}
	if len(k1) != 16 {
		t.Fatalf("key %q is not a 16-hex-digit hash", k1)
	}
	// Identical problem, fresh struct: same key.
	again := Request{Workload: "CG", Topo: []int{4, 4}, Conc: 1}
	if k2, _ := again.Key(); k2 != k1 {
		t.Fatalf("identical requests keyed %q vs %q", k1, k2)
	}
	// Deadline and parallelism are excluded: results don't depend on them.
	budgeted := Request{Workload: "CG", Topo: []int{4, 4}, Conc: 1, DeadlineMS: 5, Parallelism: 3}
	if k2, _ := budgeted.Key(); k2 != k1 {
		t.Fatalf("deadline/parallelism changed the key: %q vs %q", k1, k2)
	}
	// Everything that shapes the mapping must change the key.
	variants := map[string]Request{
		"mapper":   {Workload: "CG", Topo: []int{4, 4}, Conc: 1, Mapper: "hilbert"},
		"topology": {Workload: "CG", Topo: []int{2, 8}, Conc: 1},
		"mesh":     {Workload: "CG", Topo: []int{4, 4}, Conc: 1, Mesh: true},
		"conc":     {Workload: "CG", Topo: []int{4, 4, 2}, Conc: 2, Procs: 64},
		"beam":     {Workload: "CG", Topo: []int{4, 4}, Conc: 1, BeamWidth: 8},
		"workload": {Workload: "BT", Topo: []int{4, 4}, Conc: 1},
	}
	for name, v := range variants {
		v := v
		kv, err := v.Key()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if kv == k1 {
			t.Errorf("%s variant collided with the base key %q", name, k1)
		}
	}

	// An inline graph's key is pinned, so the daemon's cache keys cannot
	// move with the parser. The graph has CRLF line ends, comments, a blank
	// line, tabs, dropped self-loop / zero / negative lines and duplicate
	// pairs, two of them summed in an order-sensitive way (0.2, 0.1, 0.3).
	const pinnedGraph = "comm 16\r\n" +
		"# ring with duplicate pairs, CRLF line ends and comments\r\n" +
		"0 1 2.5\r\n" +
		"1\t2 1\r\n" +
		"\r\n" +
		"0 1 0.25\r\n" +
		"0 1 0.125\r\n" +
		"  2 3 1e1  \r\n" +
		"3 3 7\r\n" +
		"4 5 0\r\n" +
		"5 6 -1\r\n" +
		"   # indented comment\r\n" +
		"6 7 +3\r\n" +
		"7 8 007\r\n" +
		"8 9 0.1\r\n" +
		"9 10 0.2\r\n" +
		"8 9 0.7\r\n" +
		"9 10 0.1\r\n" +
		"10 11 1234567890123456789\r\n" +
		"11 12 4\r\n" +
		"12 13 4\r\n" +
		"13 14 4\r\n" +
		"14 15 4\r\n" +
		"15 0 4\r\n" +
		"9 10 0.3\r\n" +
		"1 2 3"
	const pinnedKey = "3a7003328298f251"
	inline := Request{Graph: pinnedGraph, Topo: []int{4, 4}}
	if k, err := inline.Key(); err != nil || k != pinnedKey {
		t.Fatalf("inline graph key %q (%v), pinned %q", k, err, pinnedKey)
	}
	// The same traffic added to a builder keys the same.
	b := NewGraph(16)
	for _, f := range [...]struct {
		s, d int
		v    float64
	}{
		{0, 1, 2.5}, {1, 2, 1}, {0, 1, 0.25}, {0, 1, 0.125}, {2, 3, 1e1},
		{3, 3, 7}, {4, 5, 0}, {5, 6, -1}, {6, 7, 3}, {7, 8, 7}, {8, 9, 0.1},
		{9, 10, 0.2}, {8, 9, 0.7}, {9, 10, 0.1}, {10, 11, 1234567890123456789},
		{11, 12, 4}, {12, 13, 4}, {13, 14, 4}, {14, 15, 4}, {15, 0, 4},
		{9, 10, 0.3}, {1, 2, 3},
	} {
		b.AddTraffic(f.s, f.d, f.v)
	}
	work := Request{Work: &Workload{Name: "inline", Graph: b.Build()}, Topo: []int{4, 4}}
	if k, err := work.Key(); err != nil || k != pinnedKey {
		t.Fatalf("built graph key %q (%v), pinned %q", k, err, pinnedKey)
	}
}

func TestMapperByName(t *testing.T) {
	for _, name := range MapperNames() {
		f, err := MapperByName(name)
		if err != nil || f == nil {
			t.Errorf("registry name %q did not resolve: %v", name, err)
		}
	}
	// Case-insensitive.
	if _, err := MapperByName("Hilbert"); err != nil {
		t.Errorf("mixed-case lookup failed: %v", err)
	}
	// Permutation specs resolve without registration.
	f, err := MapperByName("ABT")
	if err != nil {
		t.Fatalf("permutation spec: %v", err)
	}
	if got := f(nil).Name(); got != "ABT" {
		t.Errorf("permutation mapper named %q, want ABT", got)
	}
	// Unknown names fail with the typed error.
	_, err = MapperByName("no-such-mapper")
	if !errors.Is(err, ErrUnknownMapper) {
		t.Fatalf("error %v does not wrap ErrUnknownMapper", err)
	}
}

func TestRegisterMapper(t *testing.T) {
	RegisterMapper("Custom-Test", func(*Torus) ProcMapper { return Mapper{} })
	if _, err := MapperByName("custom-test"); err != nil {
		t.Fatalf("registered mapper not found: %v", err)
	}
	found := false
	for _, n := range MapperNames() {
		if n == "custom-test" {
			found = true
		}
	}
	if !found {
		t.Error("registered mapper missing from MapperNames")
	}
}

// TestSolveMatchesLegacyWrappers pins that Mapper.MapProcs, the ProcMapper
// method every comparison calls, is Solve: the named request, the
// configured one and MapProcs produce byte-identical mappings, and the
// pipeline detail agrees with the result.
func TestSolveMatchesLegacyWrappers(t *testing.T) {
	w := MustWorkload(t)
	topo := NewTorus(4, 4)

	viaMapProcs, err := Mapper{}.MapProcs(w, topo, 1)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Solve(context.Background(), Request{Work: w, Torus: topo, Conc: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(viaMapProcs, res.Mapping) {
		t.Fatalf("Solve mapping differs from MapProcs:\n%v\n%v", viaMapProcs, res.Mapping)
	}
	if res.MCL <= 0 || res.HopBytes <= 0 {
		t.Errorf("Solve did not measure quality: MCL=%v hop-bytes=%v", res.MCL, res.HopBytes)
	}
	if res.Stats == nil || res.Detail == nil {
		t.Fatal("Solve dropped the pipeline stats/detail for the RAHTM mapper")
	}
	if !reflect.DeepEqual(res.Detail.ProcToNode, res.Mapping) {
		t.Error("pipeline detail diverged from the result mapping")
	}

	configured, err := Solve(context.Background(), Request{Work: w, Torus: topo, Conc: 1, Config: &Mapper{}})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(configured.Mapping, res.Mapping) || configured.MCL != res.MCL {
		t.Error("Request.Config diverged from the named rahtm mapper")
	}
}

func TestSolveBaselineAndDeadline(t *testing.T) {
	// Baselines resolve by name and skip pipeline stats.
	res, err := Solve(context.Background(), Request{Workload: "CG", Topo: []int{4, 4}, Mapper: "greedy"})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats != nil || res.Detail != nil {
		t.Error("baseline solve carries pipeline stats")
	}
	if res.Mapper != "greedy-hop-bytes" {
		t.Errorf("mapper = %q", res.Mapper)
	}

	// A millisecond budget degrades rather than fails.
	res, err = Solve(context.Background(), Request{Workload: "CG", Topo: []int{4, 4, 4}, Conc: 4, DeadlineMS: 1})
	if err != nil {
		t.Fatalf("short deadline failed instead of degrading: %v", err)
	}
	if !res.Degraded {
		t.Error("1ms budget did not flag Degraded")
	}
	if len(res.Mapping) != 256 {
		t.Errorf("degraded mapping covers %d processes", len(res.Mapping))
	}

	// Hard cancel still aborts.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := Solve(ctx, Request{Workload: "CG", Topo: []int{4, 4}}); !errors.Is(err, context.Canceled) {
		t.Errorf("canceled solve returned %v, want context.Canceled", err)
	}
}

func TestSolveInvalidRequests(t *testing.T) {
	cases := map[string]Request{
		"no topology":      {Workload: "CG"},
		"no workload":      {Topo: []int{4, 4}},
		"unknown workload": {Workload: "nope", Topo: []int{4, 4}},
		"unknown mapper":   {Workload: "CG", Topo: []int{4, 4}, Mapper: "nope1"},
		"size mismatch":    {Workload: "CG", Procs: 64, Topo: []int{4, 4}},
		"both graphs":      {Workload: "CG", Graph: "comm 2\n0 1 5\n", Topo: []int{4, 4}},
		"negative procs":   {Workload: "random", Procs: -5, Topo: []int{4}},
		"negative grid":    {Workload: "halo3d", Grid: []int{-1, -1, -4}, Topo: []int{4}},
		"sign-paired grid": {Workload: "halo2d", Grid: []int{-2, -2}, Topo: []int{4}},
	}
	for name, req := range cases {
		req := req
		if _, err := Solve(context.Background(), req); err == nil {
			t.Errorf("%s: solve succeeded, want error", name)
		}
	}

	// Wire requests whose numbers ask for more than the package bounds,
	// or disagree with nodes x conc, are rejected before anything is
	// built: no graph is constructed. The too-large ones wrap
	// ErrRequestTooLarge and nothing else does.
	dims33 := `[` + strings.Repeat(`1,`, 32) + `1]`
	wire := []struct {
		name, body string
		tooLarge   bool
	}{
		{"node count overflow", `{"workload":"random","topo":[4294967296,4294967296]}`, true},
		{"nodes x conc overflow", `{"workload":"random","topo":[1024,1024],"conc":4294967296}`, true},
		{"nodes x conc over bound", `{"workload":"random","topo":[1024,1024],"conc":2}`, true},
		{"33 dimensions", `{"workload":"random","topo":` + dims33 + `}`, true},
		{"procs over bound", `{"workload":"random","topo":[4],"procs":2097152}`, true},
		{"grid over bound", `{"workload":"halo2d","grid":[1000000,1000000],"topo":[2]}`, true},
		{"grid overflow", `{"workload":"CG","grid":[4294967296,4294967296],"topo":[4,4]}`, true},
		{"inline header over bound", `{"graph":"comm 10000000000\n0 1 5\n","topo":[2]}`, true},
		{"negative conc", `{"workload":"random","topo":[4],"conc":-3}`, false},
		{"procs mismatch", `{"workload":"random","topo":[4],"procs":5}`, false},
		{"halo grid mismatch", `{"workload":"halo2d","grid":[4,4],"topo":[4]}`, false},
		{"halo grid shape", `{"workload":"halo3d","grid":[4,4],"topo":[4,4]}`, false},
		{"inline header mismatch", `{"graph":"comm 8\n0 1 5\n","topo":[2]}`, false},
		{"inline bad header", `{"graph":"graph 2\n0 1 5\n","topo":[2]}`, false},
	}
	for _, tc := range wire {
		var req Request
		if err := json.Unmarshal([]byte(tc.body), &req); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		builds := Metrics().Counter(telemetry.CtrGraphBuild)
		_, _, err := req.Materialize()
		if err == nil {
			t.Errorf("%s: materialized, want error", tc.name)
			continue
		}
		if got := errors.Is(err, ErrRequestTooLarge); got != tc.tooLarge {
			t.Errorf("%s: %v: wraps ErrRequestTooLarge %v, want %v", tc.name, err, got, tc.tooLarge)
		}
		if n := Metrics().Counter(telemetry.CtrGraphBuild) - builds; n != 0 {
			t.Errorf("%s: %d graphs built before the rejection", tc.name, n)
		}
	}
}

// MustWorkload builds the CG/16 test workload.
func MustWorkload(t *testing.T) *Workload {
	t.Helper()
	w, err := WorkloadByName("CG", 16)
	if err != nil {
		t.Fatal(err)
	}
	return w
}

func TestMaterializeMemo(t *testing.T) {
	req := Request{Workload: "CG", Topo: []int{4, 4}}
	w1, t1, err := req.Materialize()
	if err != nil {
		t.Fatal(err)
	}
	w2, t2, err := req.Materialize()
	if err != nil {
		t.Fatal(err)
	}
	if w1 != w2 || t1 != t2 {
		t.Error("Materialize rebuilt instead of reusing the memo")
	}
	if _, err := req.Key(); err != nil {
		t.Fatal(err)
	}
}

// TestSolveWithScope checks the request-scoped attribution contract: a
// scope on the context yields a Result stamped with the trace ID and the
// per-request counter deltas, while the process-wide registry still
// advances by exactly the same amounts (the scope's counts are folded in
// at solve end). A scope-less Solve leaves TraceID/Metrics empty.
func TestSolveWithScope(t *testing.T) {
	req := Request{Workload: "CG", Topo: []int{4, 4}, Conc: 1}

	res, err := Solve(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if res.TraceID != "" || res.Metrics != nil {
		t.Fatalf("scope-less solve carries attribution: trace %q metrics %v", res.TraceID, res.Metrics)
	}

	scope := NewScope("feedfacefeedface")
	before := Metrics()
	res, err = Solve(WithScope(context.Background(), scope), req)
	if err != nil {
		t.Fatal(err)
	}
	if res.TraceID != "feedfacefeedface" {
		t.Fatalf("trace ID = %q, want the scope's", res.TraceID)
	}
	if len(res.Metrics) == 0 {
		t.Fatal("scoped solve reports no metrics")
	}
	delta := Metrics().Sub(before)
	for name, v := range res.Metrics {
		if v < 0 {
			t.Errorf("metric %s is negative: %d", name, v)
		}
		if got := delta.Counters[name]; got != v {
			t.Errorf("global %s advanced by %d, request attributed %d", name, got, v)
		}
	}
}

// benchKey keeps BenchmarkRequestKey's result live.
var benchKey string

// BenchmarkRequestKey keys a fresh inline-graph request per iteration: Key
// reads the graph and hashes it, which rahtm-serve does for every request,
// cache hits included. The body has the shape of perfbench serve-mix's 4x4
// requests: 64 processes on a 4x4 torus at concentration 4, a periodic 2-D
// halo over the 8x8 process grid with volumes 1..9, and one random partner
// per process with volume 1..4.
func BenchmarkRequestKey(b *testing.B) {
	const side = 8
	rng := rand.New(rand.NewSource(1))
	var sb strings.Builder
	fmt.Fprintf(&sb, "comm %d\n", side*side)
	id := func(i, j int) int { return ((i+side)%side)*side + (j+side)%side }
	for i := 0; i < side; i++ {
		for j := 0; j < side; j++ {
			v := id(i, j)
			for _, n := range [...]int{id(i, j+1), id(i, j-1), id(i+1, j), id(i-1, j)} {
				fmt.Fprintf(&sb, "%d %d %d\n", v, n, 1+rng.Intn(9))
			}
			if p := rng.Intn(side * side); p != v {
				fmt.Fprintf(&sb, "%d %d %d\n", v, p, 1+rng.Intn(4))
			}
		}
	}
	text := sb.String()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		req := Request{Graph: text, Grid: []int{side, side}, Topo: []int{4, 4}, Conc: 4}
		key, err := req.Key()
		if err != nil {
			b.Fatal(err)
		}
		benchKey = key
	}
}

// TestConcurrentSolvesShareWorkload solves one generated workload from
// four goroutines at once, two through Solve and two through CompareCtx:
// the pipeline only reads the caller's graph, so under -race nothing may
// conflict, and every solve reports the same MCL.
func TestConcurrentSolvesShareWorkload(t *testing.T) {
	w := Halo2D(8, 8, 10)
	tp := NewTorus(4, 4)
	var (
		wg   sync.WaitGroup
		mcl  [4]float64
		errs [4]error
	)
	for i := range mcl {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if i < 2 {
				res, err := Solve(context.Background(), Request{Work: w, Torus: tp, Conc: 4})
				if errs[i] = err; err == nil {
					mcl[i] = res.MCL
				}
				return
			}
			cmp, err := CompareCtx(context.Background(), w, tp, 4, []ProcMapper{DefaultMapper(tp), Mapper{}}, Model{})
			if errs[i] = err; err == nil {
				mcl[i] = cmp.Rows[1].MCL
			}
		}()
	}
	wg.Wait()
	for i := range mcl {
		if errs[i] != nil {
			t.Fatalf("solve %d: %v", i, errs[i])
		}
		if math.Float64bits(mcl[i]) != math.Float64bits(mcl[0]) {
			t.Errorf("solve %d: MCL %v, solve 0 %v", i, mcl[i], mcl[0])
		}
	}
}

// FuzzRequest decodes arbitrary bytes as Request JSON, the daemon's wire
// format. checkSizes never panics. For a request that names at most 4,096
// processes, neither do Materialize and Key, and the key is the same after
// the request is encoded to JSON and decoded again.
func FuzzRequest(f *testing.F) {
	f.Fuzz(func(t *testing.T, in []byte) {
		var req Request
		if json.Unmarshal(in, &req) != nil || req.checkSizes() != nil {
			return
		}
		if nodes, _ := boundedProduct(req.Topo...); nodes*req.concOf() > 1<<12 {
			t.Skip("names more processes than a fuzz input should build")
		}
		if w, tp, err := req.Materialize(); err == nil && w.Procs() != tp.N()*req.concOf() {
			t.Fatalf("Materialize(%q): %d processes on %d nodes at conc %d", in, w.Procs(), tp.N(), req.concOf())
		}
		key, err := req.Key()
		b, merr := json.Marshal(req)
		if merr != nil {
			t.Fatalf("re-encoding %q: %v", in, merr)
		}
		var again Request
		if err := json.Unmarshal(b, &again); err != nil {
			t.Fatalf("decoding the re-encoded %q: %v", b, err)
		}
		key2, err2 := again.Key()
		if key != key2 || (err == nil) != (err2 == nil) {
			t.Fatalf("Key(%q) = %q (%v), after a JSON round trip %q (%v)", in, key, err, key2, err2)
		}
	})
}
