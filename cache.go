package mdes

// The compiled-description cache: the flat arena format (lowlevel MDAR v5)
// behind a content-addressed on-disk store (internal/descache), so a cold
// process reaches a frozen Engine without re-running the HMDES parse →
// compile → optimize pipeline. A cache hit is checksum-verified, mapped
// (where the platform allows), and materialized zero-copy: the bulk
// payload — usages, cycle masks, probe-plan words, strings — aliases the
// mapped buffer, and the persisted probe plan makes CheckerProbePlan skip
// plan compilation too.

import (
	"fmt"

	"mdes/internal/descache"
	"mdes/internal/lowlevel"
	"mdes/internal/opt"
)

// Arena is a validated flat-arena description buffer (the MDAR v5 format):
// one contiguous checksummed []byte holding every description section as
// offset-indexed records, materializable as a deep copy (Arena.MDES) or as
// a zero-copy frozen view (Arena.FrozenMDES).
type Arena = lowlevel.Arena

// EncodeArena serializes a compiled description into the flat arena
// format, probe plan included. The round trip through OpenArena +
// Arena.MDES is lossless: it re-encodes to the same bytes, so the
// Fingerprint (the header's check value) is the same too.
func EncodeArena(c *Compiled) ([]byte, error) { return c.EncodeArena() }

// OpenArena validates an arena buffer — header, CRC-32C ‖ CRC-32 check
// value, one structural pass — and returns the typed view. After OpenArena succeeds,
// materializing costs no further validation.
func OpenArena(buf []byte) (*Arena, error) { return lowlevel.OpenArena(buf) }

// CacheOption configures LoadCached / EngineFromCache.
type CacheOption func(*cacheConfig)

type cacheConfig struct {
	tuned    bool
	maxBytes int64
	dir      Direction
}

// WithTuned makes LoadCached prefer a tuned layout (persisted by
// `mdreport -tune` under the description's fingerprint × profile address)
// when the cache holds one for the key. Tuned layouts schedule
// byte-identically to the untuned description — only probe order and
// therefore probe work differ — so opting in is safe whenever any profile
// has been accepted for this description.
func WithTuned() CacheOption {
	return func(c *cacheConfig) { c.tuned = true }
}

// WithCacheLimit bounds the cache directory to maxBytes; writes beyond the
// budget evict least-recently-used entries (descache GC). <= 0 (the
// default) means unbounded.
func WithCacheLimit(maxBytes int64) CacheOption {
	return func(c *cacheConfig) { c.maxBytes = maxBytes }
}

// WithCacheDirection compiles (and keys) the description for the given
// scheduling direction; the non-default direction becomes part of the
// cache key's flags so forward and backward artifacts never collide.
func WithCacheDirection(dir Direction) CacheOption {
	return func(c *cacheConfig) { c.dir = dir }
}

// cacheFormName renders a Form as its canonical key component.
func cacheFormName(form Form) string {
	if form == FormOR {
		return "or"
	}
	return "andor"
}

// cacheKeyFor derives the content address of one compiled description:
// HMDES source hash × form × level × checker-relevant flags.
func cacheKeyFor(source string, form Form, level Level, cfg cacheConfig) descache.Key {
	k := descache.Key{
		SourceHash: descache.HashSource(source),
		Form:       cacheFormName(form),
		Level:      level.String(),
	}
	if cfg.dir == Backward {
		k.Flags = "backward"
	}
	return k
}

// LoadCached returns the compiled, optimized description for an HMDES
// source, consulting (and populating) the content-addressed cache in
// cacheDir. On a hit the returned description is a frozen zero-copy view
// of the verified arena entry — no parse, compile, optimize, or Validate
// runs, and CheckerProbePlan engines adopt the persisted probe plan
// without recompiling it. On a miss (or a corrupt entry, which is
// re-verified and never trusted) the full pipeline runs and the result is
// stored atomically for the next cold start.
//
// The description a hit returns is backed by the cache entry's mapping for
// its whole lifetime; cache-backed descriptions are process-lifetime
// objects by design (the fleet cold-start path), not transient ones.
//
// file is used in error positions only, exactly as in Load.
func LoadCached(file, source string, form Form, level Level, cacheDir string, opts ...CacheOption) (*Compiled, error) {
	var cfg cacheConfig
	for _, o := range opts {
		o(&cfg)
	}
	store, err := descache.Open(cacheDir, cfg.maxBytes)
	if err != nil {
		return nil, err
	}
	key := cacheKeyFor(source, form, level, cfg)

	// A missing or corrupt tuned slot falls through to the untuned entry,
	// which in turn falls through to a full recompile: every failure mode
	// degrades to a slower load, never to an error or a stale description.
	if cfg.tuned {
		if e, _, _, err := store.GetTuned(key); err == nil {
			return e.Arena.FrozenMDES(), nil
		}
	}
	if e, err := store.Get(key); err == nil {
		return e.Arena.FrozenMDES(), nil
	}

	// Miss (or unreadable entry): run the pipeline and repopulate.
	machine, err := Load(file, source)
	if err != nil {
		return nil, err
	}
	c := Compile(machine, form)
	opt.Apply(c, level, cfg.dir)
	arena, err := c.EncodeArena()
	if err != nil {
		return nil, fmt.Errorf("mdes: cache: %w", err)
	}
	// A failed store (read-only cache directory, disk full) degrades to
	// uncached operation rather than failing the load.
	_, _ = store.Put(key, arena)
	return c, nil
}

// EngineFromCache builds an Engine from the cache: LoadCached followed by
// NewEngine. On a warm cache this reaches a serving engine in microseconds
// — the description is already validated (checksum + structural pass at
// open), already frozen, and for CheckerProbePlan carries its probe plan
// precompiled.
func EngineFromCache(file, source string, form Form, level Level, cacheDir string, cacheOpts []CacheOption, engineOpts ...EngineOption) (*Engine, error) {
	c, err := LoadCached(file, source, form, level, cacheDir, cacheOpts...)
	if err != nil {
		return nil, err
	}
	return NewEngine(c, engineOpts...)
}
