package telemetry

import (
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"time"
)

// Route mounts an extra handler on the exposition endpoint; the caller
// owns the pattern namespace (e.g. the farm mounts its live shard table
// on "/farm").
type Route struct {
	Pattern string
	Handler http.Handler
}

// Handler returns the exposition endpoint for a registry:
//
//	/metrics        Prometheus text exposition
//	/vars           expvar-style JSON snapshot
//	/healthz        liveness probe ("ok")
//	/debug/pprof/*  the standard Go profiling handlers
//
// Extra routes are mounted verbatim and listed by the root index.
func Handler(reg *Registry, extra ...Route) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = reg.WritePrometheus(w)
	})
	mux.HandleFunc("/vars", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json; charset=utf-8")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		_ = enc.Encode(reg.Snapshot())
	})
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintln(w, "ok")
	})
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	index := "qgj telemetry: /metrics /vars /healthz"
	for _, rt := range extra {
		index += " " + rt.Pattern
		mux.Handle(rt.Pattern, rt.Handler)
	}
	index += " /debug/pprof/"
	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/" {
			http.NotFound(w, r)
			return
		}
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintln(w, index)
	})
	return mux
}

// Server is a running exposition endpoint.
type Server struct {
	// Addr is the bound address (useful with ":0").
	Addr string
	srv  *http.Server
}

// Serve binds addr (e.g. ":9090" or ":0" for an ephemeral port) and serves
// the exposition handler in a background goroutine until Close.
func Serve(addr string, reg *Registry, extra ...Route) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("telemetry: listen %s: %w", addr, err)
	}
	srv := &http.Server{Handler: Handler(reg, extra...), ReadHeaderTimeout: 5 * time.Second}
	s := &Server{Addr: ln.Addr().String(), srv: srv}
	go func() { _ = srv.Serve(ln) }()
	return s, nil
}

// Close stops the server and releases the listener.
func (s *Server) Close() error {
	if s == nil {
		return nil
	}
	return s.srv.Close()
}
