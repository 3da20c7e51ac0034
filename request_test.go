package rahtm

import (
	"context"
	"encoding/json"
	"errors"
	"reflect"
	"strings"
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
