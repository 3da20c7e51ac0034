package telemetry

import (
	"encoding/json"
	"io"
	"net/http"
	"testing"
	"time"
)

func getJSON(t *testing.T, url string, into interface{}) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: %d %s", url, resp.StatusCode, body)
	}
	if err := json.Unmarshal(body, into); err != nil {
		t.Fatalf("GET %s: bad JSON: %v\n%s", url, err, body)
	}
}

func TestServeMetricsEndpoint(t *testing.T) {
	reg := NewRegistry()
	reg.Counter(CtrStencilHits).Add(42)
	tr := NewProgressTracker()
	tr.Record(Span{Name: "prepare", Phase: PhaseMap, Worker: -1, Jobs: 3}, time.Now())
	s, err := Serve("localhost:0", reg, tr.Snapshot)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	var live LiveSnapshot
	getJSON(t, s.URL()+"/metrics", &live)
	if live.Metrics.Counter(CtrStencilHits) != 42 {
		t.Fatalf("metrics: %+v", live.Metrics)
	}
	if live.Progress.Phase != PhaseMap || live.Progress.MapJobsPlanned != 3 {
		t.Fatalf("progress: %+v", live.Progress)
	}
}

// TestServeEndpointsOwnRegistries pins that every endpoint reads the
// sources it was started with: two live endpoints each serve their own
// registry.
func TestServeEndpointsOwnRegistries(t *testing.T) {
	var urls []string
	for i := int64(1); i <= 2; i++ {
		reg := NewRegistry()
		reg.Counter("x").Add(i)
		s, err := Serve("localhost:0", reg, nil)
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		urls = append(urls, s.URL())
	}
	for i, url := range urls {
		var live LiveSnapshot
		getJSON(t, url+"/metrics", &live)
		if got := live.Metrics.Counter("x"); got != int64(i+1) {
			t.Fatalf("endpoint %d serves x = %d, want its own registry's %d", i+1, got, i+1)
		}
	}
}
