package obs

import (
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"runtime"
	"time"
)

// MuxConfig selects the optional introspection endpoints beyond the
// always-on /metrics, /debug/vars and /healthz.
type MuxConfig struct {
	// Spans, when non-nil, serves the flight recorder at /debug/traces
	// (recent + slowest trace summaries; ?id= returns one trace's spans
	// and reassembled tree).
	Spans *SpanRecorder
	// Events, when non-nil, serves the cluster event timeline at
	// /debug/events.
	Events *EventLog
	// Pprof mounts net/http/pprof under /debug/pprof/ (the -pprof
	// daemon flag).
	Pprof bool
}

// Handler returns the introspection mux every daemon serves on its
// -metrics-addr:
//
//	/metrics     Prometheus text exposition of reg
//	/debug/vars  expvar-style JSON: cmdline, memstats, and all metrics
//	/healthz     200 "ok" while healthy() returns nil, else 503
//
// plus the optional flight-recorder, event-log and pprof endpoints cfg
// selects. healthy may be nil (always healthy). Daemons pass a func
// reporting the drain state, so load balancers stop routing during
// shutdown.
func Handler(reg *Registry, healthy func() error, cfg MuxConfig) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		reg.WritePrometheus(w)
	})
	mux.HandleFunc("/debug/vars", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json; charset=utf-8")
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		doc := map[string]any{
			"cmdline": os.Args,
			"memstats": map[string]any{
				"Alloc":        ms.Alloc,
				"TotalAlloc":   ms.TotalAlloc,
				"Sys":          ms.Sys,
				"HeapAlloc":    ms.HeapAlloc,
				"HeapObjects":  ms.HeapObjects,
				"NumGC":        ms.NumGC,
				"PauseTotalNs": ms.PauseTotalNs,
			},
			"goroutines": runtime.NumGoroutine(),
			"cosm":       reg.JSONValue(),
		}
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		_ = enc.Encode(doc)
	})
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		if healthy != nil {
			if err := healthy(); err != nil {
				http.Error(w, err.Error(), http.StatusServiceUnavailable)
				return
			}
		}
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintln(w, "ok")
	})
	if cfg.Spans.Enabled() {
		mux.HandleFunc("/debug/traces", func(w http.ResponseWriter, r *http.Request) {
			w.Header().Set("Content-Type", "application/json; charset=utf-8")
			enc := json.NewEncoder(w)
			enc.SetIndent("", "  ")
			if id := r.URL.Query().Get("id"); id != "" {
				spans := cfg.Spans.Trace(id)
				_ = enc.Encode(map[string]any{
					"trace": id,
					"spans": spans,
					"roots": BuildSpanTree(spans),
				})
				return
			}
			sums := cfg.Spans.Summaries()
			recent := sums
			if len(recent) > 50 {
				recent = recent[:50]
			}
			_ = enc.Encode(map[string]any{
				"traces":  len(sums),
				"recent":  recent,
				"slowest": SlowestN(sums, 20),
			})
		})
	}
	if cfg.Events != nil {
		mux.HandleFunc("/debug/events", func(w http.ResponseWriter, r *http.Request) {
			w.Header().Set("Content-Type", "application/json; charset=utf-8")
			enc := json.NewEncoder(w)
			enc.SetIndent("", "  ")
			_ = enc.Encode(map[string]any{"events": cfg.Events.Events()})
		})
	}
	if cfg.Pprof {
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	}
	return mux
}

// Introspection is a running introspection HTTP server.
type Introspection struct {
	srv *http.Server
	ln  net.Listener
}

// ServeIntrospection starts the introspection endpoints (see Handler)
// on addr (host:port; ":0" picks an ephemeral port) and returns the
// running server. It returns immediately; Close stops it.
func ServeIntrospection(addr string, reg *Registry, healthy func() error, cfg MuxConfig) (*Introspection, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("obs: metrics listener %s: %w", addr, err)
	}
	srv := &http.Server{
		Handler:           Handler(reg, healthy, cfg),
		ReadHeaderTimeout: 5 * time.Second,
	}
	go func() { _ = srv.Serve(ln) }()
	return &Introspection{srv: srv, ln: ln}, nil
}

// Addr returns the bound address (useful with ":0").
func (i *Introspection) Addr() string {
	if i == nil {
		return ""
	}
	return i.ln.Addr().String()
}

// Close stops the server. Safe on nil.
func (i *Introspection) Close() error {
	if i == nil {
		return nil
	}
	return i.srv.Close()
}
