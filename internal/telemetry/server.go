package telemetry

import (
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"strings"
	"time"
)

// Server is a live telemetry HTTP endpoint. It serves /metrics: a
// LiveSnapshot JSON ({"progress": ..., "metrics": ...}), or the Prometheus
// text exposition instead under Accept: text/plain or ?format=prometheus.
//
// Construct with Serve and stop with Close. The server runs on its own
// listener and mux, so it never interferes with an application's default
// mux.
type Server struct {
	ln  net.Listener
	srv *http.Server
}

// LiveSnapshot is the payload of the /metrics endpoint.
type LiveSnapshot struct {
	Progress Progress `json:"progress"`
	Metrics  Snapshot `json:"metrics"`
}

// Mount registers the /metrics handler on mux, reading metrics from reg
// (nil = Default) and live progress from the progress callback (nil = zero
// Progress). It lets an application server — the rahtm-serve daemon —
// carry the telemetry endpoint on its own mux instead of a second
// listener. Every mount serves its own sources.
func Mount(mux *http.ServeMux, reg *Registry, progress func() Progress) {
	if reg == nil {
		reg = Default
	}
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		snap := LiveSnapshot{Metrics: reg.Snapshot()}
		if progress != nil {
			snap.Progress = progress()
		}
		if wantsPrometheus(r) {
			w.Header().Set("Content-Type", PromContentType)
			_ = WritePrometheus(w, snap.Metrics)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		// encoding/json refuses NaN/Inf outright; a single poisoned gauge
		// must not take the whole scrape down.
		snap.Metrics = snap.Metrics.Sanitized()
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		_ = enc.Encode(snap)
	})
}

// wantsPrometheus decides the /metrics representation: Prometheus text for
// scrapers that ask for text/plain (or the OpenMetrics type) in Accept, or
// for an explicit ?format=prometheus; JSON — the original payload — for
// everyone else, so existing consumers never change.
func wantsPrometheus(r *http.Request) bool {
	if r.URL.Query().Get("format") == "prometheus" {
		return true
	}
	for _, part := range strings.Split(r.Header.Get("Accept"), ",") {
		mt := strings.TrimSpace(strings.SplitN(part, ";", 2)[0])
		if mt == "text/plain" || mt == "application/openmetrics-text" {
			return true
		}
	}
	return false
}

// Serve starts a telemetry endpoint on addr (e.g. "localhost:6060" or
// ":0" for an ephemeral port) reading metrics from reg (nil = Default) and
// live progress from the progress callback (nil = zero Progress). It
// returns once the listener is bound; use Server.Addr for the bound
// address and Server.Close to shut down.
func Serve(addr string, reg *Registry, progress func() Progress) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("telemetry: listen %s: %w", addr, err)
	}
	mux := http.NewServeMux()
	Mount(mux, reg, progress)
	srv := &http.Server{Handler: mux, ReadHeaderTimeout: 5 * time.Second}
	s := &Server{ln: ln, srv: srv}
	go func() { _ = srv.Serve(ln) }()
	return s, nil
}

// Addr returns the bound listen address (useful with ":0").
func (s *Server) Addr() string { return s.ln.Addr().String() }

// URL returns the base http:// URL of the endpoint.
func (s *Server) URL() string { return "http://" + s.Addr() }

// Close shuts the endpoint down.
func (s *Server) Close() error { return s.srv.Close() }
