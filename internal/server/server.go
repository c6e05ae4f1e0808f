// Package server implements mdesd, the multi-tenant machine-description
// scheduling daemon (ROADMAP item 1): clients POST HMDES sources (or
// reference an already-cached arena by content address) into a
// per-tenant versioned registry keyed by the description cache's
// hash(source) × form × level content address, then issue batch schedule
// requests served by frozen engines pooling per-goroutine contexts.
//
// The daemon's availability contract, proven by the soak/fault harness
// (schedbench -serve and this package's tests):
//
//   - every response is either a result or a structured JSON error —
//     malformed uploads, oversized bodies, corrupt sources, cache
//     faults, overload, and shutdown all degrade to error responses,
//     never to a wedged pool or a stale engine;
//   - admission control bounds per-tenant concurrency and queue depth,
//     shedding overload with 429 (queue full) and 503 (admission
//     timeout, draining) instead of queueing unboundedly;
//   - hot-swapping a description drains the outgoing version: in-flight
//     requests finish on the engine they acquired, every response is
//     stamped with the fingerprint of exactly one version, and the old
//     version reports drained once quiescent;
//   - shutdown is graceful: new requests are shed, in-flight requests
//     complete, every version drains.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"regexp"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"mdes"
	"mdes/internal/stats"
	"mdes/sdk/mdesclient"
)

// Config parameterizes a daemon.
type Config struct {
	// CacheDir is the compiled-description cache directory ("" disables
	// caching: every upload compiles in-process).
	CacheDir string
	// CacheMax bounds the cache directory's bytes (LRU GC; <= 0
	// unbounded).
	CacheMax int64
	// Checker is the conflict-checker backend for every engine (the zero
	// value is CheckerProbePlan, the default).
	Checker mdes.CheckerKind
	// MaxInFlight caps concurrently served schedule requests per tenant
	// (default 32).
	MaxInFlight int
	// QueueDepth bounds each tenant's admission wait queue (default 64);
	// requests beyond it are shed with 429.
	QueueDepth int
	// RequestTimeout bounds both admission waiting and scheduling work
	// per request (default 10s); exceeding it sheds with 503.
	RequestTimeout time.Duration
	// MaxBodyBytes caps request bodies (default 8 MiB); larger uploads
	// are rejected with 413 before the analyzer sees them.
	MaxBodyBytes int64
	// ScheduleParallelism is the goroutine fan-out per schedule request's
	// batch (default 1: concurrency comes from concurrent requests).
	ScheduleParallelism int
	// ReadHeaderTimeout/ReadTimeout/WriteTimeout/IdleTimeout harden the
	// HTTP server against slow-loris clients; zero values take
	// production defaults (5s/15s/30s/2m).
	ReadHeaderTimeout time.Duration
	ReadTimeout       time.Duration
	WriteTimeout      time.Duration
	IdleTimeout       time.Duration
}

func (c *Config) withDefaults() {
	if c.MaxInFlight <= 0 {
		c.MaxInFlight = 32
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 64
	}
	if c.RequestTimeout <= 0 {
		c.RequestTimeout = 10 * time.Second
	}
	if c.MaxBodyBytes <= 0 {
		c.MaxBodyBytes = 8 << 20
	}
	if c.ScheduleParallelism <= 0 {
		c.ScheduleParallelism = 1
	}
	if c.ReadHeaderTimeout <= 0 {
		c.ReadHeaderTimeout = 5 * time.Second
	}
	if c.ReadTimeout <= 0 {
		c.ReadTimeout = 15 * time.Second
	}
	if c.WriteTimeout <= 0 {
		c.WriteTimeout = 30 * time.Second
	}
	if c.IdleTimeout <= 0 {
		c.IdleTimeout = 2 * time.Minute
	}
}

// tenantNameRE validates tenant names (they appear in paths and metric
// labels).
var tenantNameRE = regexp.MustCompile(`^[a-zA-Z0-9][a-zA-Z0-9._-]{0,63}$`)

// Server is the daemon's request-handling core, independent of any
// listener (tests drive it through httptest; Start binds it to a port).
type Server struct {
	cfg Config
	mux *http.ServeMux

	mu      sync.RWMutex
	tenants map[string]*tenant

	draining atomic.Bool
	started  time.Time
}

// New returns a daemon core with the given configuration.
func New(cfg Config) *Server {
	cfg.withDefaults()
	s := &Server{cfg: cfg, tenants: make(map[string]*tenant), started: time.Now()}
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/tenants/{tenant}/descriptions", s.handleUpload)
	mux.HandleFunc("GET /v1/tenants/{tenant}/descriptions", s.handleList)
	mux.HandleFunc("POST /v1/tenants/{tenant}/schedule", s.handleSchedule)
	mux.HandleFunc("GET /v1/tenants/{tenant}/stats", s.handleStats)
	mux.HandleFunc("/v1/tenants/{tenant}/obs/", s.handleObs)
	mux.HandleFunc("GET /healthz", s.handleHealth)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	s.mux = mux
	return s
}

// Config returns the server's effective (defaulted) configuration.
func (s *Server) Config() Config { return s.cfg }

// Handler returns the daemon's root handler: the API mux behind the
// draining gate.
func (s *Server) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if s.draining.Load() {
			writeError(w, http.StatusServiceUnavailable, "draining", "daemon is shutting down", nil)
			return
		}
		s.mux.ServeHTTP(w, r)
	})
}

// tenantOf resolves the path's tenant, creating it when create is set.
func (s *Server) tenantOf(r *http.Request, create bool) (*tenant, error) {
	name := r.PathValue("tenant")
	if !tenantNameRE.MatchString(name) {
		return nil, badRequest("invalid tenant name %q", name)
	}
	s.mu.RLock()
	t := s.tenants[name]
	s.mu.RUnlock()
	if t != nil || !create {
		if t == nil {
			return nil, &wireError{code: "not_found", msg: fmt.Sprintf("unknown tenant %q", name)}
		}
		return t, nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if t = s.tenants[name]; t == nil {
		t = &tenant{
			name:     name,
			versions: make(map[string]*version),
			gate:     newGate(s.cfg.MaxInFlight, s.cfg.QueueDepth, s.cfg.RequestTimeout),
		}
		s.tenants[name] = t
	}
	return t, nil
}

// answer serializes any handler failure into the structured error shape.
func answer(w http.ResponseWriter, t *tenant, err error) {
	var (
		werr *wireError
		serr *sourceError
	)
	if t != nil {
		t.stats.errors.Add(1)
	}
	switch {
	case errors.As(err, &serr):
		writeError(w, http.StatusBadRequest, "bad_source", serr.Error(), serr.diags)
	case errors.As(err, &werr):
		status := http.StatusBadRequest
		switch werr.code {
		case "not_found", "no_description":
			status = http.StatusNotFound
		case "too_large":
			status = http.StatusRequestEntityTooLarge
		case "overloaded":
			status = http.StatusTooManyRequests
		case "timeout", "draining":
			status = http.StatusServiceUnavailable
		case "internal":
			status = http.StatusInternalServerError
		}
		writeError(w, status, werr.code, werr.msg, nil)
	default:
		writeError(w, http.StatusInternalServerError, "internal", err.Error(), nil)
	}
}

// readBody reads a capped request body, mapping the cap to a structured
// 413.
func (s *Server) readBody(w http.ResponseWriter, r *http.Request) ([]byte, error) {
	data, err := io.ReadAll(http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes))
	if err != nil {
		var maxErr *http.MaxBytesError
		if errors.As(err, &maxErr) {
			return nil, &wireError{code: "too_large", msg: fmt.Sprintf("request body exceeds the %d-byte cap", maxErr.Limit)}
		}
		return nil, badRequest("reading body: %v", err)
	}
	return data, nil
}

func (s *Server) handleUpload(w http.ResponseWriter, r *http.Request) {
	t, err := s.tenantOf(r, true)
	if err != nil {
		answer(w, nil, err)
		return
	}
	data, err := s.readBody(w, r)
	if err != nil {
		answer(w, t, err)
		return
	}
	req, err := ParseUploadRequest(data)
	if err != nil {
		answer(w, t, err)
		return
	}
	resp, err := t.upload(s, req)
	if err != nil {
		answer(w, t, err)
		return
	}
	writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	t, err := s.tenantOf(r, false)
	if err != nil {
		answer(w, nil, err)
		return
	}
	resp := t.list()
	writeJSON(w, http.StatusOK, &resp)
}

func (s *Server) handleSchedule(w http.ResponseWriter, r *http.Request) {
	t, err := s.tenantOf(r, false)
	if err != nil {
		answer(w, nil, err)
		return
	}
	t.stats.requests.Add(1)
	release, admitted := t.gate.acquire(r.Context())
	switch admitted {
	case admitQueueFull:
		t.stats.shed429.Add(1)
		writeError(w, http.StatusTooManyRequests, "overloaded",
			fmt.Sprintf("tenant %q: in-flight and queue limits reached", t.name), nil)
		return
	case admitTimeout:
		t.stats.shed503.Add(1)
		writeError(w, http.StatusServiceUnavailable, "timeout",
			fmt.Sprintf("tenant %q: no scheduling slot within %s", t.name, s.cfg.RequestTimeout), nil)
		return
	}
	defer release()

	v := t.acquire()
	if v == nil {
		answer(w, t, &wireError{code: "no_description", msg: fmt.Sprintf("tenant %q has no active description", t.name)})
		return
	}
	defer v.release()

	data, err := s.readBody(w, r)
	if err != nil {
		answer(w, t, err)
		return
	}
	req, err := ParseScheduleRequest(data)
	if err != nil {
		answer(w, t, err)
		return
	}
	blocks := ToBlocks(req)

	ctx, cancel := context.WithTimeout(r.Context(), s.cfg.RequestTimeout)
	defer cancel()
	results, total, err := v.eng.ScheduleBlocks(ctx, blocks, s.cfg.ScheduleParallelism)
	if err != nil {
		if ctx.Err() != nil {
			t.stats.shed503.Add(1)
			writeError(w, http.StatusServiceUnavailable, "timeout",
				fmt.Sprintf("scheduling exceeded %s", s.cfg.RequestTimeout), nil)
			return
		}
		answer(w, t, &wireError{code: "bad_block", msg: err.Error()})
		return
	}
	t.stats.blocks.Add(int64(len(blocks)))
	v.blocks.Add(int64(len(blocks)))

	resp := mdesclient.ScheduleResponse{
		Fingerprint: v.fingerprint,
		Key:         v.keyID,
		Results:     make([]mdesclient.BlockResult, len(results)),
		Counters:    wireCounters(total),
	}
	for i, res := range results {
		resp.Results[i] = mdesclient.BlockResult{Issue: res.Issue, Length: res.Length}
	}
	writeJSON(w, http.StatusOK, &resp)
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	t, err := s.tenantOf(r, false)
	if err != nil {
		answer(w, nil, err)
		return
	}
	resp := mdesclient.StatsResponse{Tenant: t.name, Blocks: t.stats.blocks.Load()}
	if v := t.active.Load(); v != nil {
		resp.Fingerprint = v.fingerprint
		resp.Counters = wireCounters(v.eng.Totals())
	}
	writeJSON(w, http.StatusOK, &resp)
}

// handleObs mounts the active version's observability endpoints —
// /metrics, /metrics.json, /healthz, /debug/flight, /debug/profile,
// /debug/pprof/ — under /v1/tenants/{tenant}/obs/. The mount resolves
// the active version per request, so a hot-swap atomically switches the
// tenant's debug surfaces to the new engine.
func (s *Server) handleObs(w http.ResponseWriter, r *http.Request) {
	t, err := s.tenantOf(r, false)
	if err != nil {
		answer(w, nil, err)
		return
	}
	v := t.acquire()
	if v == nil {
		answer(w, t, &wireError{code: "no_description", msg: fmt.Sprintf("tenant %q has no active description", t.name)})
		return
	}
	defer v.release()
	prefix := "/v1/tenants/" + t.name + "/obs"
	p := strings.TrimPrefix(r.URL.Path, prefix)
	if p == "" {
		p = "/"
	}
	r2 := r.Clone(r.Context())
	r2.URL.Path = p
	v.obsMux.ServeHTTP(w, r2)
}

func (s *Server) handleHealth(w http.ResponseWriter, _ *http.Request) {
	s.mu.RLock()
	n := len(s.tenants)
	s.mu.RUnlock()
	status := "ok"
	if s.draining.Load() {
		status = "draining"
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"status":     status,
		"tenants":    n,
		"uptime_sec": int64(time.Since(s.started).Seconds()),
	})
}

// handleMetrics exports the daemon-level counters in Prometheus text
// format with per-tenant labels. Engine-level metrics (per-phase
// counters, latency histograms, flight quantiles, conflict profiles) are
// per tenant under /v1/tenants/{tenant}/obs/metrics.
func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	s.mu.RLock()
	names := make([]string, 0, len(s.tenants))
	for name := range s.tenants {
		names = append(names, name)
	}
	s.mu.RUnlock()
	sort.Strings(names)

	var b strings.Builder
	b.WriteString("# TYPE mdesd_requests_total counter\n")
	b.WriteString("# TYPE mdesd_blocks_scheduled_total counter\n")
	b.WriteString("# TYPE mdesd_shed_total counter\n")
	b.WriteString("# TYPE mdesd_errors_total counter\n")
	b.WriteString("# TYPE mdesd_uploads_total counter\n")
	b.WriteString("# TYPE mdesd_inflight gauge\n")
	b.WriteString("# TYPE mdesd_versions gauge\n")
	for _, name := range names {
		s.mu.RLock()
		t := s.tenants[name]
		s.mu.RUnlock()
		if t == nil {
			continue
		}
		fmt.Fprintf(&b, "mdesd_requests_total{tenant=%q} %d\n", name, t.stats.requests.Load())
		fmt.Fprintf(&b, "mdesd_blocks_scheduled_total{tenant=%q} %d\n", name, t.stats.blocks.Load())
		fmt.Fprintf(&b, "mdesd_shed_total{tenant=%q,code=\"429\"} %d\n", name, t.stats.shed429.Load())
		fmt.Fprintf(&b, "mdesd_shed_total{tenant=%q,code=\"503\"} %d\n", name, t.stats.shed503.Load())
		fmt.Fprintf(&b, "mdesd_errors_total{tenant=%q} %d\n", name, t.stats.errors.Load())
		fmt.Fprintf(&b, "mdesd_uploads_total{tenant=%q} %d\n", name, t.stats.uploads.Load())
		fmt.Fprintf(&b, "mdesd_inflight{tenant=%q} %d\n", name, t.gate.inFlight())
		t.mu.Lock()
		nv := len(t.versions)
		t.mu.Unlock()
		fmt.Fprintf(&b, "mdesd_versions{tenant=%q} %d\n", name, nv)
	}
	draining := 0
	if s.draining.Load() {
		draining = 1
	}
	b.WriteString("# TYPE mdesd_draining gauge\n")
	fmt.Fprintf(&b, "mdesd_draining %d\n", draining)
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_, _ = io.WriteString(w, b.String())
}

// Shutdown drains the daemon core: new requests are shed with 503,
// every version retires, and the call returns when all versions have
// drained or ctx expires. The HTTP listener's own graceful shutdown is
// the Daemon's job; call this after (or without) it.
func (s *Server) Shutdown(ctx context.Context) error {
	s.draining.Store(true)
	s.mu.RLock()
	tenants := make([]*tenant, 0, len(s.tenants))
	for _, t := range s.tenants {
		tenants = append(tenants, t)
	}
	s.mu.RUnlock()
	var all []*version
	for _, t := range tenants {
		all = append(all, t.retireAll()...)
	}
	for _, v := range all {
		select {
		case <-v.drained:
		case <-ctx.Done():
			return fmt.Errorf("server: shutdown: %d versions still draining: %w", stillDraining(all), ctx.Err())
		}
	}
	return nil
}

func stillDraining(all []*version) int {
	n := 0
	for _, v := range all {
		if !v.isDrained() {
			n++
		}
	}
	return n
}

// Daemon is a running mdesd: the Server core bound to a listener.
type Daemon struct {
	// Addr is the bound address (host:port), useful with ":0".
	Addr string
	srv  *Server
	hsrv *http.Server
	ln   net.Listener
}

// Start binds addr and serves the daemon on it in a background
// goroutine until Shutdown/Close.
func Start(addr string, cfg Config) (*Daemon, error) {
	s := New(cfg)
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("server: listen %s: %w", addr, err)
	}
	hsrv := &http.Server{
		Handler:           s.Handler(),
		ReadHeaderTimeout: s.cfg.ReadHeaderTimeout,
		ReadTimeout:       s.cfg.ReadTimeout,
		WriteTimeout:      s.cfg.WriteTimeout,
		IdleTimeout:       s.cfg.IdleTimeout,
	}
	go func() { _ = hsrv.Serve(ln) }()
	return &Daemon{Addr: ln.Addr().String(), srv: s, hsrv: hsrv, ln: ln}, nil
}

// Server returns the daemon's request-handling core.
func (d *Daemon) Server() *Server { return d.srv }

// Shutdown stops the daemon gracefully: the listener closes (no new
// connections), new requests on kept-alive connections are shed with
// 503, in-flight requests complete, and every description version
// drains — all bounded by ctx.
func (d *Daemon) Shutdown(ctx context.Context) error {
	d.srv.draining.Store(true)
	err := d.hsrv.Shutdown(ctx)
	if err != nil {
		// Grace expired: cut stragglers so the port is always freed.
		if cerr := d.hsrv.Close(); cerr != nil && errors.Is(err, context.DeadlineExceeded) {
			err = cerr
		}
	}
	if serr := d.srv.Shutdown(ctx); err == nil {
		err = serr
	}
	return err
}

// Close is Shutdown with a 5-second grace period.
func (d *Daemon) Close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	return d.Shutdown(ctx)
}

func wireCounters(c stats.Counters) mdesclient.Counters {
	return mdesclient.Counters{
		Attempts:       c.Attempts,
		OptionsChecked: c.OptionsChecked,
		ResourceChecks: c.ResourceChecks,
		Conflicts:      c.Conflicts,
		Backtracks:     c.Backtracks,
	}
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}
