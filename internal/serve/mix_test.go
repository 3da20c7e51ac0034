package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"rahtm"
)

// mixBody is a request of the benchmark's serve-mix shape: an inline graph
// for a side x side torus at concentration 4 (a periodic 2-D halo over
// the (2·side)² process grid with volumes 1..9, plus one random partner
// per process with volume 1..4), for mapper ("" is RAHTM) under an
// optional deadline.
func mixBody(rng *rand.Rand, side int, mapper string, deadlineMS int64) string {
	g := 2 * side
	procs := g * g
	var b strings.Builder
	fmt.Fprintf(&b, "comm %d\n", procs)
	id := func(i, j int) int { return ((i+g)%g)*g + (j+g)%g }
	for i := 0; i < g; i++ {
		for j := 0; j < g; j++ {
			v := id(i, j)
			for _, n := range [...]int{id(i, j+1), id(i, j-1), id(i+1, j), id(i-1, j)} {
				fmt.Fprintf(&b, "%d %d %d\n", v, n, 1+rng.Intn(9))
			}
			if p := rng.Intn(procs); p != v {
				fmt.Fprintf(&b, "%d %d %d\n", v, p, 1+rng.Intn(4))
			}
		}
	}
	body, err := json.Marshal(rahtm.Request{
		Graph: b.String(), Grid: []int{g, g}, Topo: []int{side, side}, Conc: 4,
		Mapper: mapper, DeadlineMS: deadlineMS,
	})
	if err != nil {
		panic(err) // a Request of plain fields always marshals
	}
	return string(body)
}

// checkAnswer verifies an answer against its request: a valid placement
// at the request's concentration and an MCL that recomputes bit for bit.
func checkAnswer(body string, res *rahtm.Result) error {
	var req rahtm.Request
	if err := json.Unmarshal([]byte(body), &req); err != nil {
		return err
	}
	w, tor, err := req.Materialize()
	if err != nil {
		return err
	}
	if len(res.Mapping) != w.Procs() {
		return fmt.Errorf("%d placements for %d processes", len(res.Mapping), w.Procs())
	}
	perNode := make([]int, tor.N())
	for p, node := range res.Mapping {
		if node < 0 || node >= tor.N() {
			return fmt.Errorf("process %d on node %d of %d", p, node, tor.N())
		}
		if perNode[node]++; perNode[node] > req.Conc {
			return fmt.Errorf("node %d holds more than %d processes", node, req.Conc)
		}
	}
	if mcl := rahtm.MCL(tor, w.Graph, res.Mapping); math.Float64bits(mcl) != math.Float64bits(res.MCL) {
		return fmt.Errorf("MCL %v recomputes as %v", res.MCL, mcl)
	}
	return nil
}

// TestServeMixFanOut drives one daemon from 2 clients with serve-mix's
// request classes — repeat hits on primed keys, cold 4x4 RAHTM solves on
// inline random graphs, default and hilbert baselines, 8x8 solves under a
// 2-ms deadline that degrade, and an occasional cold 8x8 — at
// MaxParallelism 2, so core's and merge's fan-outs run inside the daemon;
// CI runs it under -race. Every answer must be a valid placement with an
// MCL that recomputes bit for bit, every hit must equal its cold answer,
// and no goroutine may outlive Shutdown.
func TestServeMixFanOut(t *testing.T) {
	base := runtime.NumGoroutine()
	s := New(context.Background(), Config{Workers: 2, MaxParallelism: 2})
	ts := httptest.NewServer(s.Handler())
	transport := &http.Transport{}
	client := &http.Client{Transport: transport}
	ask := func(body string) (*rahtm.Result, error) {
		resp, err := client.Post(ts.URL+"/solve", "application/json", strings.NewReader(body))
		if err != nil {
			return nil, err
		}
		defer resp.Body.Close()
		out, err := io.ReadAll(resp.Body)
		if err != nil {
			return nil, err
		}
		if resp.StatusCode != http.StatusOK {
			return nil, fmt.Errorf("status %d: %s", resp.StatusCode, out)
		}
		var res rahtm.Result
		if err := json.Unmarshal(out, &res); err != nil {
			return nil, err
		}
		return &res, checkAnswer(body, &res)
	}

	rng := rand.New(rand.NewSource(1))
	hot := make([]string, 3)
	primed := make([]*rahtm.Result, len(hot))
	for i := range hot {
		hot[i] = mixBody(rng, 4, "", 0)
		res, err := ask(hot[i])
		if err != nil {
			t.Fatalf("priming key %d: %v", i, err)
		}
		if res.Cached || res.Degraded {
			t.Fatalf("priming key %d: cached %v, degraded %v", i, res.Cached, res.Degraded)
		}
		primed[i] = res
	}

	// Each client sends three blocks of serve-mix's classes in a shuffled
	// order: 13 hits, 4 cold 4x4 solves, 2 baselines and 1 degraded 8x8;
	// each client's first cold solve is a cold 8x8 instead.
	type mixReq struct {
		class string
		body  string
		hot   int
	}
	var schedules [2][]mixReq
	for c := range schedules {
		for b := 0; b < 3; b++ {
			block := []mixReq{
				{class: "baseline", body: mixBody(rng, 8, "default", 0)},
				{class: "baseline", body: mixBody(rng, 8, "hilbert", 0)},
				{class: "degraded", body: mixBody(rng, 8, "", 2)},
			}
			for k := 0; k < 4; k++ {
				side := 4
				if b == 0 && k == 0 {
					side = 8
				}
				block = append(block, mixReq{class: "cold", body: mixBody(rng, side, "", 0)})
			}
			for k := 0; k < 13; k++ {
				h := rng.Intn(len(hot))
				block = append(block, mixReq{class: "hit", body: hot[h], hot: h})
			}
			rng.Shuffle(len(block), func(i, j int) { block[i], block[j] = block[j], block[i] })
			schedules[c] = append(schedules[c], block...)
		}
	}
	var wg sync.WaitGroup
	for c := range schedules {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i, r := range schedules[c] {
				res, err := ask(r.body)
				if err != nil {
					t.Errorf("client %d request %d (%s): %v", c, i, r.class, err)
					continue
				}
				switch r.class {
				case "hit":
					p := primed[r.hot]
					if !res.Cached || !slices.Equal(res.Mapping, p.Mapping) || math.Float64bits(res.MCL) != math.Float64bits(p.MCL) {
						t.Errorf("client %d request %d: hit on key %d (cached %v) differs from its cold answer", c, i, r.hot, res.Cached)
					}
				case "degraded":
					if !res.Degraded {
						t.Errorf("client %d request %d: a 2-ms 8x8 solve did not degrade", c, i)
					}
				default:
					if res.Cached || res.Degraded {
						t.Errorf("client %d request %d (%s): cached %v, degraded %v", c, i, r.class, res.Cached, res.Degraded)
					}
				}
			}
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
		if n = runtime.NumGoroutine(); n <= base {
			return
		}
	}
	buf := make([]byte, 1<<20)
	t.Fatalf("%d goroutines after Shutdown, %d before:\n%s", n, base, buf[:runtime.Stack(buf, true)])
}
