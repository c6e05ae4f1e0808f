package obs

import (
	"context"
	"expvar"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"sort"
	"strings"
	"time"

	"mdes/internal/obs/flight"
	"mdes/internal/obs/profile"
)

// WritePrometheus renders the snapshot in the Prometheus text exposition
// format.
func WritePrometheus(b *strings.Builder, s Snapshot) {
	b.WriteString("# TYPE mdes_attempts_total counter\n")
	b.WriteString("# TYPE mdes_options_checked_total counter\n")
	b.WriteString("# TYPE mdes_resource_checks_total counter\n")
	b.WriteString("# TYPE mdes_conflicts_total counter\n")
	b.WriteString("# TYPE mdes_backtracks_total counter\n")
	for _, p := range s.Phases {
		if p.Attempts == 0 && p.Backtracks == 0 {
			continue
		}
		fmt.Fprintf(b, "mdes_attempts_total{phase=%q} %d\n", p.Phase, p.Attempts)
		fmt.Fprintf(b, "mdes_options_checked_total{phase=%q} %d\n", p.Phase, p.OptionsChecked)
		fmt.Fprintf(b, "mdes_resource_checks_total{phase=%q} %d\n", p.Phase, p.ResourceChecks)
		fmt.Fprintf(b, "mdes_conflicts_total{phase=%q} %d\n", p.Phase, p.Conflicts)
		fmt.Fprintf(b, "mdes_backtracks_total{phase=%q} %d\n", p.Phase, p.Backtracks)
	}
	b.WriteString("# TYPE mdes_check_duration_ns histogram\n")
	for _, p := range s.Phases {
		if p.Attempts == 0 {
			continue
		}
		var cum int64
		for i, n := range p.CheckNs {
			cum += n
			if n == 0 && i != len(p.CheckNs)-1 {
				continue
			}
			fmt.Fprintf(b, "mdes_check_duration_ns_bucket{phase=%q,le=\"%d\"} %d\n",
				p.Phase, BucketUpperBound(i), cum)
		}
		fmt.Fprintf(b, "mdes_check_duration_ns_bucket{phase=%q,le=\"+Inf\"} %d\n", p.Phase, cum)
		fmt.Fprintf(b, "mdes_check_duration_ns_sum{phase=%q} %d\n", p.Phase, p.CheckNsSum)
		fmt.Fprintf(b, "mdes_check_duration_ns_count{phase=%q} %d\n", p.Phase, cum)
	}
	b.WriteString("# TYPE mdes_class_attempts_total counter\n")
	b.WriteString("# TYPE mdes_class_conflicts_total counter\n")
	for _, c := range s.Classes {
		if c.Attempts == 0 {
			continue
		}
		fmt.Fprintf(b, "mdes_class_attempts_total{class=%q} %d\n", c.Class, c.Attempts)
		fmt.Fprintf(b, "mdes_class_conflicts_total{class=%q} %d\n", c.Class, c.Conflicts)
	}
	b.WriteString("# TYPE mdes_resource_conflicts_total counter\n")
	for _, r := range s.Resources {
		if r.Conflicts == 0 {
			continue
		}
		fmt.Fprintf(b, "mdes_resource_conflicts_total{resource=%q} %d\n", r.Resource, r.Conflicts)
	}
	b.WriteString("# TYPE mdes_contexts_in_flight gauge\n")
	fmt.Fprintf(b, "mdes_contexts_in_flight %d\n", s.InFlight)
	b.WriteString("# TYPE mdes_context_merges_total counter\n")
	fmt.Fprintf(b, "mdes_context_merges_total %d\n", s.Merges)
	if s.Backend != "" {
		b.WriteString("# TYPE mdes_checker_backend gauge\n")
		fmt.Fprintf(b, "mdes_checker_backend{backend=%q} 1\n", s.Backend)
	}

	if l := s.Translator; l != nil {
		b.WriteString("# TYPE mdes_translator_pass_duration_ns gauge\n")
		b.WriteString("# TYPE mdes_translator_pass_delta_bytes gauge\n")
		for _, p := range l.Passes {
			fmt.Fprintf(b, "mdes_translator_pass_duration_ns{pass=%q} %d\n", p.Pass, p.WallNs)
			fmt.Fprintf(b, "mdes_translator_pass_delta_bytes{pass=%q} %d\n", p.Pass, p.DeltaBytes())
		}
		b.WriteString("# TYPE mdes_translator_duration_ns gauge\n")
		fmt.Fprintf(b, "mdes_translator_duration_ns{level=%q} %d\n", l.Level, l.WallNs)
		b.WriteString("# TYPE mdes_translator_size gauge\n")
		for _, side := range []struct {
			when string
			m    SizeMetrics
		}{{"before", l.Before}, {"after", l.After}} {
			for _, v := range []struct {
				metric string
				n      int
			}{
				{"options", side.m.Options},
				{"trees", side.m.Trees},
				{"classes", side.m.Classes},
				{"scalar_usages", side.m.ScalarUsages},
				{"mask_words", side.m.MaskWords},
				{"total_bytes", side.m.TotalBytes},
			} {
				fmt.Fprintf(b, "mdes_translator_size{when=%q,metric=%q} %d\n",
					side.when, v.metric, v.n)
			}
		}
	}
}

// ExpvarVar returns an expvar.Var rendering the registry's snapshot as
// JSON, for callers that want to expvar.Publish it under their own name.
func ExpvarVar(r *Registry) expvar.Var {
	return expvar.Func(func() any { return r.Snapshot() })
}

// ServerOption configures Handler and ServeMetrics.
type ServerOption func(*serverConfig)

type serverConfig struct {
	flight  *flight.Recorder
	profile *profile.Profile
}

// WithFlightExporter attaches a flight recorder to the endpoint: its
// latency quantiles are appended to /metrics, its dump is served at
// /debug/flight, and /healthz reports its block and anomaly counts.
func WithFlightExporter(f *flight.Recorder) ServerOption {
	return func(c *serverConfig) { c.flight = f }
}

// WithProfileExporter attaches a conflict-attribution profile to the
// endpoint: its live snapshot is served as JSON at /debug/profile.
func WithProfileExporter(p *profile.Profile) ServerOption {
	return func(c *serverConfig) { c.profile = p }
}

// Handler returns a mux exposing the registry:
//
//	/metrics       Prometheus text exposition format
//	/metrics.json  the full Snapshot as JSON (expvar-style)
//	/healthz       liveness probe (JSON status)
//	/debug/flight  flight-recorder dump (with WithFlightExporter)
//	/debug/profile conflict-attribution profile snapshot (with WithProfileExporter)
//	/debug/vars    the process-wide expvar handler
//	/debug/pprof/  the standard pprof handlers
func Handler(r *Registry, opts ...ServerOption) *http.ServeMux {
	var cfg serverConfig
	for _, o := range opts {
		o(&cfg)
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
		var b strings.Builder
		WritePrometheus(&b, r.Snapshot())
		if cfg.flight != nil {
			cfg.flight.WritePrometheus(&b)
		}
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		fmt.Fprint(w, b.String())
	})
	mux.HandleFunc("/metrics.json", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		fmt.Fprint(w, ExpvarVar(r).String())
	})
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		if cfg.flight != nil {
			blocks, anomalies := cfg.flight.Status()
			fmt.Fprintf(w, "{\"status\":\"ok\",\"blocks\":%d,\"anomalies\":%d}\n", blocks, anomalies)
			return
		}
		fmt.Fprint(w, "{\"status\":\"ok\"}\n")
	})
	mux.HandleFunc("/debug/flight", func(w http.ResponseWriter, _ *http.Request) {
		if cfg.flight == nil {
			http.Error(w, "flight recorder not configured", http.StatusNotFound)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		if err := cfg.flight.WriteDump(w); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
		}
	})
	mux.HandleFunc("/debug/profile", func(w http.ResponseWriter, _ *http.Request) {
		if cfg.profile == nil {
			http.Error(w, "conflict profile not configured", http.StatusNotFound)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		if err := cfg.profile.WriteSnapshot(w); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
		}
	})
	mux.Handle("/debug/vars", expvar.Handler())
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// Server is a running metrics endpoint.
type Server struct {
	// Addr is the bound address (host:port), useful with ":0".
	Addr string
	srv  *http.Server
	ln   net.Listener
}

// shutdownGrace bounds how long Close waits for in-flight requests
// before cutting them off.
const shutdownGrace = 5 * time.Second

// Close stops the endpoint: the listener closes immediately (no new
// connections), in-flight requests get a bounded grace period, then any
// stragglers are cut off.
func (s *Server) Close() error {
	ctx, cancel := context.WithTimeout(context.Background(), shutdownGrace)
	defer cancel()
	return s.Shutdown(ctx)
}

// Shutdown stops the endpoint gracefully: the listener closes
// immediately and in-flight requests are allowed to complete until ctx
// expires, at which point they are forcibly closed.
func (s *Server) Shutdown(ctx context.Context) error {
	err := s.srv.Shutdown(ctx)
	if err != nil {
		// Grace expired (or ctx canceled): cut off the stragglers so
		// Close always leaves the port free.
		if cerr := s.srv.Close(); cerr != nil && err == context.DeadlineExceeded {
			err = cerr
		}
	}
	return err
}

// ServeMetrics binds addr (e.g. ":8080", "127.0.0.1:0") and serves
// Handler(r, opts...) on it in a background goroutine until Close. The
// server carries conservative read/write timeouts: it exposes
// diagnostics, so a stuck client must never pin a connection forever.
func ServeMetrics(addr string, r *Registry, opts ...ServerOption) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("obs: listen %s: %w", addr, err)
	}
	srv := &http.Server{
		Handler:           Handler(r, opts...),
		ReadHeaderTimeout: 5 * time.Second,
		ReadTimeout:       10 * time.Second,
		WriteTimeout:      30 * time.Second,
		IdleTimeout:       2 * time.Minute,
	}
	go srv.Serve(ln)
	return &Server{Addr: ln.Addr().String(), srv: srv, ln: ln}, nil
}

// TopClasses returns the snapshot's classes with attempts, sorted by
// attempts descending, truncated to n (n <= 0 keeps all).
func TopClasses(s Snapshot, n int) []ClassSnapshot {
	var out []ClassSnapshot
	for _, c := range s.Classes {
		if c.Attempts > 0 {
			out = append(out, c)
		}
	}
	sort.Slice(out, func(a, b int) bool {
		if out[a].Attempts != out[b].Attempts {
			return out[a].Attempts > out[b].Attempts
		}
		return out[a].Class < out[b].Class
	})
	if n > 0 && len(out) > n {
		out = out[:n]
	}
	return out
}
