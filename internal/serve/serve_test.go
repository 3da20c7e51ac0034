package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"rahtm"
	"rahtm/internal/telemetry"
)

// newTestServer builds a Server plus an httptest front end.
func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s := New(context.Background(), cfg)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = s.Shutdown(ctx)
	})
	return s, ts
}

func postSolve(t *testing.T, url, body string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(url+"/solve", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatalf("POST /solve: %v", err)
	}
	defer resp.Body.Close()
	return resp, []byte(readAll(t, resp))
}

func readAll(t *testing.T, resp *http.Response) string {
	t.Helper()
	var sb strings.Builder
	buf := make([]byte, 4096)
	for {
		n, err := resp.Body.Read(buf)
		sb.Write(buf[:n])
		if err != nil {
			break
		}
	}
	return sb.String()
}

func decodeResult(t *testing.T, body []byte) *rahtm.Result {
	t.Helper()
	var res rahtm.Result
	if err := json.Unmarshal(body, &res); err != nil {
		t.Fatalf("decoding result: %v\nbody: %s", err, body)
	}
	return &res
}

const cgRequest = `{"workload":"CG","topo":[4,4],"conc":1,"mapper":"rahtm"}`

func TestSolveHappyPath(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, body := postSolve(t, ts.URL, cgRequest)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d, body %s", resp.StatusCode, body)
	}
	res := decodeResult(t, body)
	if len(res.Mapping) != 16 {
		t.Fatalf("mapping covers %d processes, want 16", len(res.Mapping))
	}
	if res.MCL <= 0 {
		t.Errorf("MCL = %v, want > 0", res.MCL)
	}
	if res.Mapper != "RAHTM" {
		t.Errorf("mapper = %q, want RAHTM", res.Mapper)
	}
	if res.Degraded {
		t.Error("unbudgeted solve reported degraded")
	}
	if res.CacheKey == "" {
		t.Error("result carries no cache key")
	}
	seen := make(map[int]bool)
	for _, n := range res.Mapping {
		if n < 0 || n >= 16 || seen[n] {
			t.Fatalf("mapping is not a permutation of nodes: %v", res.Mapping)
		}
		seen[n] = true
	}
}

func TestSolveBaselineMapper(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, body := postSolve(t, ts.URL, `{"workload":"BT","topo":[4,4],"mapper":"hilbert"}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d, body %s", resp.StatusCode, body)
	}
	res := decodeResult(t, body)
	if res.Mapper != "Hilbert" {
		t.Errorf("mapper = %q, want Hilbert", res.Mapper)
	}
	if res.Stats != nil {
		t.Error("baseline mapper reported pipeline stats")
	}
}

func TestSolveInlineGraph(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	req := `{"graph":"comm 4\n0 1 10\n1 2 10\n2 3 10\n3 0 10\n","topo":[2,2],"mapper":"greedy"}`
	resp, body := postSolve(t, ts.URL, req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d, body %s", resp.StatusCode, body)
	}
	if res := decodeResult(t, body); len(res.Mapping) != 4 {
		t.Fatalf("mapping covers %d processes, want 4", len(res.Mapping))
	}
}

func TestMalformedRequests(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	cases := []struct {
		name, body string
	}{
		{"bad json", `{"workload":`},
		{"no topology", `{"workload":"CG"}`},
		{"no workload", `{"topo":[4,4]}`},
		{"unknown workload", `{"workload":"nope","topo":[4,4]}`},
		{"unknown mapper", `{"workload":"CG","topo":[4,4],"mapper":"not-a-mapper"}`},
		{"size mismatch", `{"workload":"CG","procs":64,"topo":[4,4]}`},
		{"zero dimension", `{"workload":"CG","topo":[4,0]}`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resp, body := postSolve(t, ts.URL, tc.body)
			if resp.StatusCode != http.StatusBadRequest {
				t.Fatalf("status %d, want 400; body %s", resp.StatusCode, body)
			}
			var e map[string]string
			if err := json.Unmarshal(body, &e); err != nil || e["error"] == "" {
				t.Fatalf("error body %s", body)
			}
		})
	}
	resp, err := http.Get(ts.URL + "/solve")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET /solve: status %d, want 405", resp.StatusCode)
	}
}

// TestOversizedRequests413 checks that requests whose numbers name more
// than the request bounds are refused with 413 before any solve is queued,
// while a size that merely disagrees with nodes x conc stays a 400.
func TestOversizedRequests413(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	for _, tc := range []struct {
		name, body string
		code       int
	}{
		{"node count overflow", `{"workload":"random","topo":[4294967296,4294967296]}`, http.StatusRequestEntityTooLarge},
		{"nodes x conc over bound", `{"workload":"random","topo":[1024,1024],"conc":2}`, http.StatusRequestEntityTooLarge},
		{"grid over bound", `{"workload":"halo2d","grid":[1000000,1000000],"topo":[2]}`, http.StatusRequestEntityTooLarge},
		{"inline header over bound", `{"graph":"comm 10000000000\n0 1 5\n","topo":[2]}`, http.StatusRequestEntityTooLarge},
		{"negative conc", `{"workload":"random","topo":[4],"conc":-3}`, http.StatusBadRequest},
		{"inline header mismatch", `{"graph":"comm 8\n0 1 5\n","topo":[2]}`, http.StatusBadRequest},
	} {
		t.Run(tc.name, func(t *testing.T) {
			before := ctrCacheMisses.Value()
			resp, body := postSolve(t, ts.URL, tc.body)
			if resp.StatusCode != tc.code {
				t.Fatalf("status %d, want %d; body %s", resp.StatusCode, tc.code, body)
			}
			if ctrCacheMisses.Value() != before {
				t.Fatal("a refused request reached the cache probe")
			}
		})
	}
}

func TestDeadlineDegrade(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, body := postSolve(t, ts.URL, `{"workload":"CG","topo":[4,4,4],"conc":4,"deadline_ms":1}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d, body %s", resp.StatusCode, body)
	}
	res := decodeResult(t, body)
	if !res.Degraded {
		t.Fatal("1ms budget did not degrade the solve")
	}
	if len(res.Mapping) != 256 {
		t.Fatalf("degraded mapping covers %d processes, want 256", len(res.Mapping))
	}
	counts := make(map[int]int)
	for _, n := range res.Mapping {
		if n < 0 || n >= 64 {
			t.Fatalf("node %d out of range", n)
		}
		counts[n]++
	}
	for n, c := range counts {
		if c != 4 {
			t.Fatalf("node %d holds %d processes, want 4", n, c)
		}
	}
}

// blockingMapper parks until released (or canceled), so tests can hold
// workers busy deterministically. Registered through the public registry —
// which also exercises RegisterMapper.
type blockingMapper struct {
	release chan struct{}
}

func (b blockingMapper) Name() string { return "block" }

func (b blockingMapper) MapProcs(w *rahtm.Workload, t *rahtm.Torus, conc int) (rahtm.Mapping, error) {
	return b.MapProcsCtx(context.Background(), w, t, conc)
}

func (b blockingMapper) MapProcsCtx(ctx context.Context, w *rahtm.Workload, t *rahtm.Torus, conc int) (rahtm.Mapping, error) {
	select {
	case <-b.release:
	case <-ctx.Done():
		return nil, ctx.Err()
	}
	m := make(rahtm.Mapping, w.Procs())
	for i := range m {
		m[i] = i / conc
	}
	return m, nil
}

func TestAdmissionControl429(t *testing.T) {
	release := make(chan struct{})
	var once sync.Once
	unblock := func() { once.Do(func() { close(release) }) }
	rahtm.RegisterMapper("block", func(*rahtm.Torus) rahtm.ProcMapper {
		return blockingMapper{release: release}
	})
	_, ts := newTestServer(t, Config{Workers: 1, QueueDepth: 1})
	t.Cleanup(unblock) // runs before the server cleanup, so drain never hangs

	blockReq := `{"workload":"CG","topo":[4,4],"mapper":"block"}`
	type reply struct {
		status int
		body   string
	}
	replies := make(chan reply, 2)
	// First request occupies the worker, second fills the queue.
	for i := 0; i < 2; i++ {
		go func() {
			resp, err := http.Post(ts.URL+"/solve", "application/json", strings.NewReader(blockReq))
			if err != nil {
				replies <- reply{status: -1, body: err.Error()}
				return
			}
			defer resp.Body.Close()
			replies <- reply{status: resp.StatusCode, body: readAll(t, resp)}
		}()
		// Wait until the request is visibly held (in flight or queued).
		deadline := time.Now().Add(5 * time.Second)
		for {
			if time.Now().After(deadline) {
				t.Fatal("request never reached the worker/queue")
			}
			resp, err := http.Get(ts.URL + "/healthz")
			if err != nil {
				t.Fatal(err)
			}
			var h struct {
				Queue    int `json:"queue"`
				Inflight int `json:"inflight"`
			}
			err = json.NewDecoder(resp.Body).Decode(&h)
			resp.Body.Close()
			if err != nil {
				t.Fatal(err)
			}
			if h.Inflight+h.Queue > i {
				break
			}
			time.Sleep(5 * time.Millisecond)
		}
	}

	prev := telemetry.Default.Snapshot()
	resp, body := postSolve(t, ts.URL, blockReq)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status %d, want 429; body %s", resp.StatusCode, body)
	}
	if ra := resp.Header.Get("Retry-After"); ra == "" {
		t.Error("429 carries no Retry-After")
	}
	if d := telemetry.Default.Snapshot().Sub(prev); d.Counter(telemetry.CtrServeRejected) != 1 {
		t.Errorf("rejected counter delta = %d, want 1", d.Counter(telemetry.CtrServeRejected))
	}

	// Releasing the mapper lets the held requests complete normally.
	unblock()
	for i := 0; i < 2; i++ {
		r := <-replies
		if r.status != http.StatusOK {
			t.Fatalf("held request finished with %d: %s", r.status, r.body)
		}
	}
}

func TestCacheHitVsMiss(t *testing.T) {
	s, ts := newTestServer(t, Config{})

	prev := telemetry.Default.Snapshot()
	resp1, body1 := postSolve(t, ts.URL, cgRequest)
	if resp1.StatusCode != http.StatusOK {
		t.Fatalf("first request: status %d, body %s", resp1.StatusCode, body1)
	}
	first := decodeResult(t, body1)
	if first.Cached {
		t.Fatal("first request reported cached")
	}

	resp2, body2 := postSolve(t, ts.URL, cgRequest)
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("second request: status %d, body %s", resp2.StatusCode, body2)
	}
	second := decodeResult(t, body2)
	if !second.Cached {
		t.Fatal("identical second request missed the cache")
	}
	if fmt.Sprint(first.Mapping) != fmt.Sprint(second.Mapping) {
		t.Fatalf("cached mapping differs:\n%v\n%v", first.Mapping, second.Mapping)
	}
	if first.MCL != second.MCL {
		t.Fatalf("cached MCL %v != fresh MCL %v", second.MCL, first.MCL)
	}

	d := telemetry.Default.Snapshot().Sub(prev)
	if hits := d.Counter(telemetry.CtrServeCacheHits); hits != 1 {
		t.Errorf("cache hit delta = %d, want 1", hits)
	}
	if misses := d.Counter(telemetry.CtrServeCacheMisses); misses != 1 {
		t.Errorf("cache miss delta = %d, want 1", misses)
	}
	if s.CacheLen() != 1 {
		t.Errorf("cache holds %d entries, want 1", s.CacheLen())
	}

	// A different mapper is a different key: it must miss.
	resp3, body3 := postSolve(t, ts.URL, `{"workload":"CG","topo":[4,4],"conc":1,"mapper":"hilbert"}`)
	if resp3.StatusCode != http.StatusOK {
		t.Fatalf("third request: status %d, body %s", resp3.StatusCode, body3)
	}
	if third := decodeResult(t, body3); third.Cached {
		t.Error("different mapper hit the cache")
	}
}

func TestDegradedResultsAreNotCached(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	req := `{"workload":"CG","topo":[4,4,4],"conc":4,"deadline_ms":1}`
	prev := telemetry.Default.Snapshot()
	resp, body := postSolve(t, ts.URL, req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d, body %s", resp.StatusCode, body)
	}
	if !decodeResult(t, body).Degraded {
		t.Skip("budget did not degrade on this machine")
	}
	resp2, body2 := postSolve(t, ts.URL, req)
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("status %d, body %s", resp2.StatusCode, body2)
	}
	if decodeResult(t, body2).Cached {
		t.Fatal("degraded result was served from the cache")
	}
	d := telemetry.Default.Snapshot().Sub(prev)
	if d.Counter(telemetry.CtrServeDegraded) < 1 {
		t.Errorf("degraded counter delta = %d, want >= 1", d.Counter(telemetry.CtrServeDegraded))
	}
}

// TestCancellationStormNoGoroutineLeak sends cold solves that spend most
// of their time in the merge and cancels each client after a seeded 1–50
// ms, then solves with 1–20 ms deadlines, and shuts the daemon down: every
// goroutine the storm started — handlers, workers, merge and scheduler
// workers, connections — must be gone again. Heap is not checked: a bound
// on a GC-timed number flakes.
func TestCancellationStormNoGoroutineLeak(t *testing.T) {
	base := runtime.NumGoroutine()
	s := New(context.Background(), Config{Workers: 2, CacheEntries: -1})
	ts := httptest.NewServer(s.Handler())
	transport := &http.Transport{}
	client := &http.Client{Transport: transport}
	rng := rand.New(rand.NewSource(1))

	post := func(ctx context.Context, body string) {
		req, err := http.NewRequestWithContext(ctx, http.MethodPost, ts.URL+"/solve", strings.NewReader(body))
		if err != nil {
			t.Error(err)
			return
		}
		if resp, err := client.Do(req); err == nil {
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
		}
	}
	// random 512 on an 8x8 torus at conc 8 spends over 95% of its solve
	// in the merge.
	const cold = `{"workload":"random","topo":[8,8],"conc":8%s}`
	var wg sync.WaitGroup
	for i := 0; i < 32; i++ {
		delay := time.Duration(1+rng.Intn(50)) * time.Millisecond
		wg.Add(1)
		go func() {
			defer wg.Done()
			ctx, cancel := context.WithTimeout(context.Background(), delay)
			defer cancel()
			post(ctx, fmt.Sprintf(cold, ""))
		}()
	}
	for i := 0; i < 16; i++ {
		deadline := fmt.Sprintf(`,"deadline_ms":%d`, 1+rng.Intn(20))
		wg.Add(1)
		go func() {
			defer wg.Done()
			post(context.Background(), fmt.Sprintf(cold, deadline))
		}()
	}
	wg.Wait()

	transport.CloseIdleConnections()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	ts.Close()
	var n int
	for end := time.Now().Add(5 * time.Second); time.Now().Before(end); time.Sleep(10 * time.Millisecond) {
		if n = runtime.NumGoroutine(); n <= base+2 {
			return
		}
	}
	buf := make([]byte, 1<<20)
	t.Fatalf("%d goroutines after the storm, %d before:\n%s", n, base, buf[:runtime.Stack(buf, true)])
}

func TestGracefulShutdown(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1})
	// Park one request so the drain has something to wait for.
	release := make(chan struct{})
	var once sync.Once
	unblock := func() { once.Do(func() { close(release) }) }
	t.Cleanup(unblock)
	rahtm.RegisterMapper("block-drain", func(*rahtm.Torus) rahtm.ProcMapper {
		return blockingMapper{release: release}
	})
	done := make(chan *http.Response, 1)
	go func() {
		resp, err := http.Post(ts.URL+"/solve", "application/json",
			strings.NewReader(`{"workload":"CG","topo":[4,4],"mapper":"block-drain"}`))
		if err == nil {
			resp.Body.Close()
		}
		done <- resp
	}()
	waitInflight(t, ts.URL, 1)

	shut := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		shut <- s.Shutdown(ctx)
	}()
	// Health flips to draining; polling /healthz never consumes queue space,
	// so the parked worker can't wedge this loop.
	deadline := time.Now().Add(5 * time.Second)
	for {
		resp, err := http.Get(ts.URL + "/healthz")
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode == http.StatusServiceUnavailable {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("healthz never reported draining")
		}
		time.Sleep(5 * time.Millisecond)
	}
	// Admission is closed: new solves are refused outright.
	if resp, body := postSolve(t, ts.URL, cgRequest); resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("admission still open during drain: %d %s", resp.StatusCode, body)
	}
	unblock()
	if err := <-shut; err != nil {
		t.Fatalf("drain failed: %v", err)
	}
	if resp := <-done; resp != nil && resp.StatusCode != http.StatusOK {
		t.Fatalf("in-flight request finished with %d during drain", resp.StatusCode)
	}
}

func waitInflight(t *testing.T, url string, want int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		resp, err := http.Get(url + "/healthz")
		if err != nil {
			t.Fatal(err)
		}
		var h struct {
			Inflight int `json:"inflight"`
		}
		err = json.NewDecoder(resp.Body).Decode(&h)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if h.Inflight >= want {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("inflight never reached %d", want)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func TestHealthzAndMetricsEndpoints(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/healthz status %d", resp.StatusCode)
	}
	var h map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		t.Fatal(err)
	}
	if h["status"] != "ok" {
		t.Fatalf("healthz status %v", h["status"])
	}

	mresp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer mresp.Body.Close()
	if mresp.StatusCode != http.StatusOK {
		t.Fatalf("/metrics status %d", mresp.StatusCode)
	}
	var live struct {
		Metrics telemetry.Snapshot `json:"metrics"`
	}
	if err := json.NewDecoder(mresp.Body).Decode(&live); err != nil {
		t.Fatal(err)
	}
	if _, ok := live.Metrics.Counters[telemetry.CtrServeRequests]; !ok {
		t.Error("/metrics does not expose the serve request counter")
	}
}

// TestConcurrentRequests hammers the daemon from many goroutines; run
// under -race it shakes out data races across the queue, cache, and
// telemetry paths.
func TestConcurrentRequests(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 4, QueueDepth: 256, MaxParallelism: 1})
	reqs := []string{
		cgRequest,
		`{"workload":"BT","topo":[4,4],"mapper":"hilbert"}`,
		`{"workload":"SP","topo":[4,4],"mapper":"greedy"}`,
		`{"workload":"CG","topo":[4,4],"mapper":"ABT"}`,
		`{"workload":"CG","topo":[4,4],"deadline_ms":1}`,
	}
	var wg sync.WaitGroup
	errs := make(chan string, 64)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 4; i++ {
				body := reqs[(g+i)%len(reqs)]
				resp, err := http.Post(ts.URL+"/solve", "application/json", strings.NewReader(body))
				if err != nil {
					errs <- err.Error()
					continue
				}
				out := readAll(t, resp)
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					errs <- fmt.Sprintf("status %d: %s", resp.StatusCode, out)
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Errorf("concurrent request failed: %s", e)
	}
}

// TestRetryAfterHintClamped pins the Retry-After clamp: a hint below one
// second (no history, or a fast service) must round up to 1 — zero invites
// an immediate retry storm — and a pathological backlog caps at 60.
func TestRetryAfterHintClamped(t *testing.T) {
	if got := retryAfterHint(0, 0, 8, 2); got != 1 {
		t.Fatalf("no history: hint %d, want 1", got)
	}
	// 5ms mean over a queue of 8 with 2 workers: well under a second.
	if got := retryAfterHint(10, 50, 8, 2); got != 1 {
		t.Fatalf("fast solves: hint %d, want 1", got)
	}
	// 2s mean, queue 4, 2 workers: 4 seconds, inside the clamp.
	if got := retryAfterHint(5, 10000, 4, 2); got != 4 {
		t.Fatalf("mid-range: hint %d, want 4", got)
	}
	// 100s mean over a deep queue: capped at 60.
	if got := retryAfterHint(2, 200000, 32, 1); got != 60 {
		t.Fatalf("backlog: hint %d, want 60", got)
	}
}

// panicMapper panics inside MapProcs, on the worker's goroutine.
type panicMapper struct{}

func (panicMapper) Name() string { return "panic" }

func (panicMapper) MapProcs(*rahtm.Workload, *rahtm.Torus, int) (rahtm.Mapping, error) {
	panic("panicMapper: deliberate failure")
}

// TestSolvePanicRecovered pins that a panicking solve costs its own request
// a 500, counted on serve.errors, while the lone worker survives to answer
// the next request.
func TestSolvePanicRecovered(t *testing.T) {
	rahtm.RegisterMapper("panic-test", func(*rahtm.Torus) rahtm.ProcMapper { return panicMapper{} })
	s, ts := newTestServer(t, Config{Workers: 1})
	before := telemetry.Default.Snapshot().Counter(telemetry.CtrServeErrors)

	resp, body := postSolve(t, ts.URL, `{"workload":"CG","topo":[4,4],"mapper":"panic-test"}`)
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("panicking solve: status %d, body %s; want 500", resp.StatusCode, body)
	}
	if e, ok := s.tracker.get(resp.Header.Get(TraceHeader)); !ok || e.Status != "error" {
		t.Errorf("panicking solve's trace = %+v (found %v), want status error", e, ok)
	}
	if !strings.Contains(string(body), "deliberate failure") {
		t.Errorf("500 body does not carry the panic: %s", body)
	}
	if got := telemetry.Default.Snapshot().Counter(telemetry.CtrServeErrors) - before; got != 1 {
		t.Errorf("serve.errors advanced by %d, want 1", got)
	}

	resp, body = postSolve(t, ts.URL, cgRequest)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("request after the panic: status %d, body %s; want 200", resp.StatusCode, body)
	}
}

// solvePanicObserver panics on every level-1 solve span, which the
// pipeline emits from its own worker goroutines.
type solvePanicObserver struct{}

func (solvePanicObserver) Record(sp rahtm.Span, _ time.Time) {
	if sp.Name == "solve" && sp.Level == 1 {
		panic("observer panic on solve")
	}
}

// workerPanicMapper runs a Parallelism-4 pipeline whose level-1 solves
// span several workers, under solvePanicObserver: the panic starts on one
// of the pipeline's worker goroutines, not on the daemon worker's.
type workerPanicMapper struct{}

func (workerPanicMapper) Name() string { return "worker-panic" }

func (workerPanicMapper) MapProcs(*rahtm.Workload, *rahtm.Torus, int) (rahtm.Mapping, error) {
	res, err := rahtm.Solve(context.Background(), rahtm.Request{
		Work: rahtm.RandomNeighbors(256, 4, 10, 3), Torus: rahtm.NewTorus(8, 8), Conc: 4,
		Config: &rahtm.Mapper{Parallelism: 4}, Observer: solvePanicObserver{},
	})
	if err != nil {
		return nil, err
	}
	return res.Mapping, nil
}

// TestSolveWorkerPanicRecovered is TestSolvePanicRecovered with the panic
// inside the pipeline's own fan-out: it reaches the daemon worker, costs
// its request a 500 that carries the panic's value but no stack, and the
// daemon keeps serving.
func TestSolveWorkerPanicRecovered(t *testing.T) {
	rahtm.RegisterMapper("worker-panic-test", func(*rahtm.Torus) rahtm.ProcMapper { return workerPanicMapper{} })
	_, ts := newTestServer(t, Config{Workers: 1})

	resp, body := postSolve(t, ts.URL, `{"workload":"CG","topo":[4,4],"mapper":"worker-panic-test"}`)
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("panicking solve: status %d, body %s; want 500", resp.StatusCode, body)
	}
	if !strings.Contains(string(body), "observer panic on solve") || strings.Contains(string(body), "goroutine") {
		t.Errorf("500 body should carry the panic's value and no stack: %s", body)
	}

	resp, body = postSolve(t, ts.URL, cgRequest)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("request after the panic: status %d, body %s; want 200", resp.StatusCode, body)
	}
}

// TestClampParallelism pins clampRequest's reading of Parallelism, which
// must agree with the pipeline's (sched.Workers: 0 = GOMAXPROCS, below 1 =
// one worker): on a capped daemon an unset request gets the cap, a larger
// one is cut to it, and a negative one stays one worker, as it is on an
// uncapped daemon.
func TestClampParallelism(t *testing.T) {
	for _, tc := range []struct {
		max, sent, want int
	}{
		{0, 0, 0}, {0, -1, -1}, {0, 3, 3},
		{2, 0, 2}, {2, -1, -1}, {2, 1, 1}, {2, 2, 2}, {2, 5, 2},
	} {
		s := &Server{cfg: Config{MaxParallelism: tc.max}}
		req := rahtm.Request{Parallelism: tc.sent}
		s.clampRequest(&req)
		if req.Parallelism != tc.want {
			t.Errorf("MaxParallelism %d: parallelism %d clamped to %d, want %d", tc.max, tc.sent, req.Parallelism, tc.want)
		}
	}
}
