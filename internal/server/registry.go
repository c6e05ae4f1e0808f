package server

import (
	"errors"
	"fmt"
	"net/http"
	"sync"
	"sync/atomic"

	"mdes"
	"mdes/internal/cli"
	"mdes/internal/descache"
	"mdes/internal/obs"
	"mdes/sdk/mdesclient"
)

// version is one registered compiled description: a frozen engine (whose
// resctx pool recycles per-goroutine scheduling contexts), its
// observability surfaces, and the refcount that makes hot-swap safe.
//
// Every schedule request acquires the tenant's active version once,
// schedules its whole batch against that version's engine, and releases
// it — so one response can never mix engines, and the response's
// fingerprint names exactly the description that produced it. When a
// version is swapped out it is retired: in-flight requests finish on it,
// and when the last reference drops the version is drained (its pool
// quiescent, observable in the version listing).
type version struct {
	keyID       string
	sourceHash  string
	fingerprint string
	machine     string
	cached      bool

	eng     *mdes.Engine
	metrics *mdes.Metrics
	flight  *mdes.FlightRecorder
	profile *mdes.ConflictProfile
	obsMux  http.Handler

	refs      atomic.Int64
	retired   atomic.Bool
	drainOnce sync.Once
	drained   chan struct{}
	blocks    atomic.Int64
}

// release drops one reference; the last release of a retired version
// marks it drained.
func (v *version) release() {
	if v.refs.Add(-1) == 0 && v.retired.Load() {
		v.drainOnce.Do(func() { close(v.drained) })
	}
}

// retire marks the version swapped-out. If no request holds it the drain
// completes immediately; otherwise the last release completes it.
func (v *version) retire() {
	v.retired.Store(true)
	if v.refs.Load() == 0 {
		v.drainOnce.Do(func() { close(v.drained) })
	}
}

// isDrained reports whether the version has retired and quiesced.
func (v *version) isDrained() bool {
	select {
	case <-v.drained:
		return true
	default:
		return false
	}
}

// info renders the version for the listing endpoint.
func (v *version) info(active bool) mdesclient.VersionInfo {
	return mdesclient.VersionInfo{
		Key:         v.keyID,
		Fingerprint: v.fingerprint,
		Machine:     v.machine,
		Active:      active,
		Retired:     v.retired.Load(),
		Drained:     v.isDrained(),
		InFlight:    v.refs.Load(),
	}
}

// tenant is one isolated client namespace: its own description versions,
// active-version pointer, admission gate, and stats.
type tenant struct {
	name string

	// mu serializes uploads and swaps; the schedule hot path never takes
	// it (active is an atomic pointer, admission is channel-based).
	mu       sync.Mutex
	versions map[string]*version
	order    []string // registration order, for stable listings

	active atomic.Pointer[version]
	gate   *gate
	stats  tenantStats
}

// tenantStats are the daemon-level per-tenant counters exported at
// /metrics with tenant labels.
type tenantStats struct {
	requests atomic.Int64 // schedule requests received
	blocks   atomic.Int64 // blocks scheduled
	shed429  atomic.Int64 // requests shed by queue overflow
	shed503  atomic.Int64 // requests shed by admission timeout / draining
	errors   atomic.Int64 // requests answered with a non-shed error
	uploads  atomic.Int64 // description uploads
}

// acquire takes a reference on the tenant's active version, retrying
// across a concurrent hot-swap so it never returns a retired version.
func (t *tenant) acquire() *version {
	for {
		v := t.active.Load()
		if v == nil {
			return nil
		}
		v.refs.Add(1)
		if t.active.Load() == v {
			return v
		}
		// Lost a race with a swap: the reference taken above may be on
		// the outgoing version. Drop it and retry on the new active.
		v.release()
	}
}

// upload registers (and optionally activates) a version for the request,
// reusing an existing live version under the same key.
func (t *tenant) upload(s *Server, req *mdesclient.UploadRequest) (*mdesclient.UploadResponse, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.stats.uploads.Add(1)

	keyID := s.keyFor(req).ID()
	v := t.versions[keyID]
	if v == nil || v.retired.Load() {
		nv, err := s.buildVersion(req)
		if err != nil {
			return nil, err
		}
		if _, exists := t.versions[keyID]; !exists {
			t.order = append(t.order, keyID)
		}
		t.versions[keyID] = nv
		v = nv
	}
	if req.Activate {
		old := t.active.Swap(v)
		if old != nil && old != v {
			old.retire()
		}
	}
	return &mdesclient.UploadResponse{
		Key:         v.keyID,
		SourceHash:  v.sourceHash,
		Fingerprint: v.fingerprint,
		Machine:     v.machine,
		Active:      t.active.Load() == v,
		Cached:      v.cached,
	}, nil
}

// list renders the tenant's versions in registration order.
func (t *tenant) list() mdesclient.ListResponse {
	t.mu.Lock()
	defer t.mu.Unlock()
	active := t.active.Load()
	resp := mdesclient.ListResponse{Tenant: t.name, Versions: make([]mdesclient.VersionInfo, 0, len(t.order))}
	for _, id := range t.order {
		if v := t.versions[id]; v != nil {
			resp.Versions = append(resp.Versions, v.info(v == active))
		}
	}
	return resp
}

// retireAll retires every version (shutdown path) and returns those to
// wait on.
func (t *tenant) retireAll() []*version {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.active.Store(nil)
	out := make([]*version, 0, len(t.versions))
	for _, v := range t.versions {
		v.retire()
		out = append(out, v)
	}
	return out
}

// keyFor derives the registry/cache key of an upload request. Form and
// level defaults are already applied by ParseUploadRequest.
func (s *Server) keyFor(req *mdesclient.UploadRequest) descache.Key {
	hash := req.SourceHash
	if req.Source != "" {
		hash = descache.HashSource(req.Source)
	}
	return descache.Key{SourceHash: hash, Form: canonForm(req.Form), Level: canonLevel(req.Level)}
}

func canonForm(s string) string {
	if f, err := cli.ParseForm(s); err == nil && f == mdes.FormOR {
		return "or"
	}
	return "andor"
}

func canonLevel(s string) string {
	if l, err := cli.ParseLevel(s); err == nil {
		return l.String()
	}
	return "full"
}

// buildVersion compiles (or cache-loads) the request's description and
// wraps it in a frozen engine with per-version observability: a metrics
// registry, an always-on flight recorder, and a conflict-attribution
// profile, all mounted under the tenant's /obs/ subtree.
func (s *Server) buildVersion(req *mdesclient.UploadRequest) (*version, error) {
	var (
		compiled *mdes.Compiled
		cached   bool
		err      error
	)
	form, ferr := cli.ParseForm(req.Form)
	if ferr != nil {
		return nil, badRequest("%v", ferr)
	}
	level, lerr := cli.ParseLevel(req.Level)
	if lerr != nil {
		return nil, badRequest("%v", lerr)
	}
	key := s.keyFor(req)

	if req.Source == "" {
		// Reference an already-cached arena by content address: never
		// compiles, so a miss (or an unusable cache) is a 404.
		compiled, err = s.openCached(key)
		if err != nil {
			return nil, err
		}
		cached = true
	} else {
		compiled, cached, err = s.loadOrCompile(req.Source, form, level)
		if err != nil {
			return nil, err
		}
	}

	metrics := mdes.NewMetrics(compiled)
	flightRec := mdes.NewFlightRecorder(mdes.FlightConfig{})
	prof := mdes.NewConflictProfile(compiled)
	eng, err := mdes.NewEngine(compiled,
		mdes.WithChecker(s.cfg.Checker),
		mdes.WithMetrics(metrics),
		mdes.WithFlight(flightRec),
		mdes.WithProfile(prof),
	)
	if err != nil {
		return nil, badRequest("engine: %v", err)
	}
	// The engine froze the description, so its fingerprint is computed at
	// most once (a cached arena view reads it from the header) and the
	// views stamped above share it.
	fingerprint, err := compiled.Fingerprint()
	if err != nil {
		return nil, &wireError{code: "internal", msg: fmt.Sprintf("fingerprint: %v", err)}
	}
	v := &version{
		keyID:       key.ID(),
		sourceHash:  key.SourceHash,
		fingerprint: fingerprint,
		machine:     compiled.MachineName,
		cached:      cached,
		eng:         eng,
		metrics:     metrics,
		flight:      flightRec,
		profile:     prof,
		drained:     make(chan struct{}),
	}
	v.obsMux = obs.Handler(metrics, obs.WithFlightExporter(flightRec), obs.WithProfileExporter(prof))
	return v, nil
}

// loadOrCompile runs the upload through the compiled-description cache,
// degrading to an uncached in-process pipeline when the cache directory
// is unusable: a broken cache must cost speed, never availability.
func (s *Server) loadOrCompile(source string, form mdes.Form, level mdes.Level) (*mdes.Compiled, bool, error) {
	if s.cfg.CacheDir != "" {
		var opts []mdes.CacheOption
		if s.cfg.CacheMax > 0 {
			opts = append(opts, mdes.WithCacheLimit(s.cfg.CacheMax))
		}
		c, err := mdes.LoadCached("upload.mdes", source, form, level, s.cfg.CacheDir, opts...)
		if err == nil {
			return c, c.Frozen(), nil
		}
		if diags := diagnosticsOf(err); diags != nil {
			return nil, false, &sourceError{err: err, diags: diags}
		}
		// Cache infrastructure failure (directory unusable, etc.):
		// fall through to the uncached pipeline below.
	}
	machine, err := mdes.Load("upload.mdes", source)
	if err != nil {
		if diags := diagnosticsOf(err); diags != nil {
			return nil, false, &sourceError{err: err, diags: diags}
		}
		return nil, false, badRequest("load: %v", err)
	}
	c := mdes.Compile(machine, form)
	mdes.Optimize(c, level)
	return c, false, nil
}

// openCached opens a cache entry by content address.
func (s *Server) openCached(key descache.Key) (*mdes.Compiled, error) {
	if s.cfg.CacheDir == "" {
		return nil, &wireError{code: "not_found", msg: "daemon runs without a description cache; upload the source instead"}
	}
	store, err := descache.Open(s.cfg.CacheDir, 0)
	if err != nil {
		return nil, &wireError{code: "not_found", msg: fmt.Sprintf("description cache unavailable: %v", err)}
	}
	e, err := store.Get(key)
	if err != nil {
		if errors.Is(err, descache.ErrMiss) {
			return nil, &wireError{code: "not_found", msg: fmt.Sprintf("no cached description under %s", key.ID())}
		}
		return nil, &wireError{code: "not_found", msg: fmt.Sprintf("cached entry %s unusable: %v", key.ID(), err)}
	}
	return e.Arena.FrozenMDES(), nil
}

// sourceError is a positioned HMDES rejection with its structured
// diagnostics.
type sourceError struct {
	err   error
	diags []mdesclient.Diagnostic
}

func (e *sourceError) Error() string { return e.err.Error() }
