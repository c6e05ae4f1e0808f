// Package resctx provides the session layer between one immutable compiled
// machine description and its many concurrent consumers.
//
// The compiled lowlevel.MDES is compile-once, validate-once data: after
// Freeze it is never mutated, so any number of goroutines may share one
// copy (the paper's premise is that one description serves a compiler's
// hottest inner loop; in a long-running service the same artifact must
// serve many inner loops at once). All per-client mutable state — the
// conflict checker (internal/check backend instance), the instrumentation
// counters, the observability buffer, and the selection scratch buffers —
// lives in a Context instead. Consumers (the list scheduler, the query
// interface, the modulo scheduler) borrow a Context, run against the
// shared MDES, and return it.
//
// A Pool recycles Contexts via sync.Pool and aggregates the counters of
// every returned Context, giving a service both allocation-free steady
// state and global instrumentation totals without any per-check
// synchronization: counters and metrics are accumulated locally in the
// borrowed Context and folded into the pool's atomic totals (and, when
// configured, into an obs.Registry) exactly once, on Put. Put and
// Context.Release are idempotent, so a double release can neither
// double-count a context's counters nor hand the same context to two
// borrowers.
package resctx

import (
	"sync"
	"sync/atomic"

	"mdes/internal/check"
	"mdes/internal/ir"
	"mdes/internal/lowlevel"
	"mdes/internal/obs"
	"mdes/internal/obs/flight"
	"mdes/internal/obs/profile"
	"mdes/internal/probeplan"
	"mdes/internal/stats"
)

// Context is the per-client mutable state for scheduling and querying
// against one shared compiled MDES. A Context must not be used from more
// than one goroutine at a time; borrow one per goroutine instead.
//
// Exactly one of PP and Checker is set on a context that probes: PP for
// the reservation-table engine, Checker for the §10 automaton. A context
// that only accounts (the modulo scheduler brings its own wrapped map)
// carries neither.
type Context struct {
	// PP is the probe-plan prober — the reservation-table engine every
	// scheduler, the query layer and the Engine probe by default.
	PP *probeplan.Prober
	// Checker is the automaton backend (check.KindAutomaton); nil
	// whenever PP is set.
	Checker check.Checker
	// Arena is the per-context scratch allocator for schedule-sized
	// scratch slices; the list scheduler carves all per-block state from
	// it, so the steady-state probe loop allocates nothing.
	Arena Arena
	// Builder is the reusable dependence-graph constructor the list
	// scheduler builds every block's graph with; its scratch persists
	// across the blocks and borrows of this context.
	Builder ir.Builder
	// Counters accumulates the attempts / options checked / resource
	// checks performed through this context since it was borrowed.
	Counters stats.Counters
	// Obs, when non-nil, is the observability buffer the schedulers bump
	// on the hot path (per-phase, per-class, per-resource metrics); it is
	// merged into the pool's obs.Registry on release. Nil when the pool
	// has no registry (observability disabled) and on standalone
	// contexts.
	Obs *obs.Local
	// Flight, when non-nil, is the per-context flight-recorder ring the
	// schedulers append one compact entry per block to; it is merged into
	// the pool's flight.Recorder on release. Nil when the pool has no
	// recorder and on standalone contexts.
	Flight *flight.Local
	// Prof, when non-nil, is the per-context conflict-attribution profile
	// buffer (per-constraint / per-tree / per-option probe frequencies);
	// it is merged into the pool's profile.Profile on release. Nil when
	// the pool has no profile and on standalone contexts.
	Prof *profile.Local
	// Sels is a reusable selection scratch for multi-reserve probes.
	Sels []check.Selection

	pool *Pool
	// released guards the release path: folding a context's counters
	// into the pool totals must happen at most once per borrow (see
	// Pool.Put).
	released bool
}

// Standalone freezes m, compiles its probe plan and returns a standalone
// (unpooled) Context probing it — the one-call setup behind sched.New and
// query.New. Freezing makes the plan a faithful snapshot: the
// transformation pipeline refuses a frozen description, so no later pass
// can leave the context probing stale spans. It panics with the
// validator's or the planner's message when m cannot be frozen or
// planned. Release on a standalone Context is a no-op, so single-client
// code can treat pooled and unpooled Contexts uniformly.
func Standalone(m *lowlevel.MDES) *Context {
	if err := m.Freeze(); err != nil {
		panic(err)
	}
	plan, err := probeplan.Compile(m)
	if err != nil {
		panic(err)
	}
	return &Context{PP: probeplan.NewProber(plan)}
}

// adopt installs a checker: the probe-plan backend is unwrapped into PP,
// any other backend is kept behind the interface.
func (c *Context) adopt(ck check.Checker) {
	c.PP, c.Checker = nil, nil
	if pp, ok := ck.(*check.ProbePlan); ok {
		c.PP = pp.Prober()
	} else {
		c.Checker = ck
	}
}

// Capabilities reports what the context's backend supports.
func (c *Context) Capabilities() check.Capabilities {
	if c.PP != nil {
		return check.Caps(check.KindProbePlan)
	}
	return c.Checker.Capabilities()
}

// Check probes the context's backend, accounting into ctr (per-block or
// per-call counters; callers fold them into c.Counters themselves).
func (c *Context) Check(con *lowlevel.Constraint, issue int, ctr *stats.Counters) (check.Selection, bool) {
	if c.PP != nil {
		sel, ok := c.PP.Check(con, issue, ctr)
		return check.Selection{Selection: sel}, ok
	}
	return c.Checker.Check(con, issue, ctr)
}

// Reserve applies a successful Selection.
func (c *Context) Reserve(sel check.Selection) {
	if c.PP != nil {
		c.PP.Reserve(sel.Selection)
		return
	}
	c.Checker.Reserve(sel)
}

// ReleaseSel undoes a previous Reserve. Gate on Capabilities().CanRelease:
// the automaton panics.
func (c *Context) ReleaseSel(sel check.Selection) {
	if c.PP != nil {
		c.PP.Release(sel.Selection)
		return
	}
	c.Checker.Release(sel)
}

// Explain attributes a failed Check to its blocking resource slot and
// provenance. The automaton cannot attribute and reports none.
func (c *Context) Explain(con *lowlevel.Constraint, issue int) (check.Conflict, bool) {
	if c.PP == nil {
		return check.Conflict{}, false
	}
	return c.PP.Explain(con, issue)
}

// BlockingRes returns just the resource index a failed Check would be
// attributed to, or -1: the cheap slice of Explain for metrics attribution
// (obs.Local.ConflictAt keys on the resource alone).
func (c *Context) BlockingRes(con *lowlevel.Constraint, issue int) int {
	if c.PP == nil {
		return -1
	}
	return c.PP.BlockerRes(con, issue)
}

// BlockingTreeRes attributes a failed Check to the position (within the
// constraint) of the first unsatisfiable tree and its blocking resource:
// the profile-grade slice of Explain (tree + resource, no provenance).
// Returns (-1, -1) when nothing can be attributed.
func (c *Context) BlockingTreeRes(con *lowlevel.Constraint, issue int) (int, int) {
	if c.PP == nil {
		return -1, -1
	}
	return c.PP.BlockerTreeRes(con, issue)
}

// ResetReservations clears the backend's reservations, retaining storage.
func (c *Context) ResetReservations() {
	if c.PP != nil {
		c.PP.Reset()
	} else if c.Checker != nil {
		c.Checker.Reset()
	}
}

// Reset clears the backend's reservations, counters, and observability
// buffer, retaining all storage.
func (c *Context) Reset() {
	c.ResetReservations()
	c.Counters = stats.Counters{}
	if c.Obs != nil {
		c.Obs.Reset()
	}
	c.Prof.Reset()
	c.Sels = c.Sels[:0]
	c.Arena.Reset()
}

// Release returns the Context to the Pool it was borrowed from, folding
// its counters into the pool totals. Releasing a standalone Context, or
// releasing the same Context twice, is a no-op. The Context must not be
// used after Release.
func (c *Context) Release() {
	if c.pool != nil {
		c.pool.Put(c)
	}
}

// Pool recycles Contexts for one compiled MDES and aggregates the
// instrumentation of every Context returned to it.
type Pool struct {
	p sync.Pool

	attempts   atomic.Int64
	options    atomic.Int64
	checks     atomic.Int64
	conflicts  atomic.Int64
	backtracks atomic.Int64

	reg  *obs.Registry
	fr   *flight.Recorder
	prof *profile.Profile
}

// NewPoolFor returns a Context pool whose contexts carry checkers built by
// the factory (one checker instance per pooled context; backend state
// shared through the factory).
func NewPoolFor(f *check.Factory) *Pool {
	pl := &Pool{}
	pl.p.New = func() any {
		c := &Context{pool: pl}
		c.adopt(f.New())
		return c
	}
	return pl
}

// SetMetrics attaches an observability registry: every Context borrowed
// after this call carries an obs.Local merged into reg on release, and
// the registry's in-flight gauge tracks borrowed contexts. Must be
// called before the first Get (mdes.NewEngine configures it at
// construction).
func (p *Pool) SetMetrics(reg *obs.Registry) { p.reg = reg }

// Metrics returns the attached registry, or nil.
func (p *Pool) Metrics() *obs.Registry { return p.reg }

// SetFlight attaches a flight recorder: every Context borrowed after this
// call carries a flight.Local ring merged into rec on release. Must be
// called before the first Get (mdes.NewEngine configures it at
// construction).
func (p *Pool) SetFlight(rec *flight.Recorder) { p.fr = rec }

// Flight returns the attached flight recorder, or nil.
func (p *Pool) Flight() *flight.Recorder { return p.fr }

// SetProfile attaches a conflict-attribution profile: every Context
// borrowed after this call carries a profile.Local merged into prof on
// release. Must be called before the first Get (mdes.NewEngine configures
// it at construction).
func (p *Pool) SetProfile(prof *profile.Profile) { p.prof = prof }

// Profile returns the attached profile, or nil.
func (p *Pool) Profile() *profile.Profile { return p.prof }

// Get borrows a clean Context. The caller must return it with Put (or
// Context.Release) when done.
func (p *Pool) Get() *Context {
	c := p.p.Get().(*Context)
	c.released = false
	if p.reg != nil {
		if c.Obs == nil {
			c.Obs = p.reg.NewLocal()
		}
		p.reg.AddInFlight(1)
	}
	if p.fr != nil && c.Flight == nil {
		c.Flight = p.fr.NewLocal()
	}
	if p.prof != nil && c.Prof == nil {
		c.Prof = p.prof.NewLocal()
	}
	return c
}

// Put folds the Context's counters into the pool totals (and its
// observability buffer into the registry, when configured), resets it,
// and makes it available for reuse. Put is idempotent per borrow: a
// second Put of the same Context is a no-op, so its counters cannot be
// double-counted and the pool cannot hand the same Context to two
// borrowers.
func (p *Pool) Put(c *Context) {
	if c.released {
		return
	}
	c.released = true
	p.attempts.Add(c.Counters.Attempts)
	p.options.Add(c.Counters.OptionsChecked)
	p.checks.Add(c.Counters.ResourceChecks)
	p.conflicts.Add(c.Counters.Conflicts)
	p.backtracks.Add(c.Counters.Backtracks)
	if p.reg != nil {
		p.reg.Merge(c.Obs)
		p.reg.AddInFlight(-1)
	}
	if p.fr != nil {
		p.fr.Merge(c.Flight)
	}
	if p.prof != nil {
		p.prof.Merge(c.Prof)
	}
	c.Reset()
	p.p.Put(c)
}

// Totals returns the aggregated counters of every Context returned to the
// pool so far. Contexts currently borrowed are not included until Put.
func (p *Pool) Totals() stats.Counters {
	return stats.Counters{
		Attempts:       p.attempts.Load(),
		OptionsChecked: p.options.Load(),
		ResourceChecks: p.checks.Load(),
		Conflicts:      p.conflicts.Load(),
		Backtracks:     p.backtracks.Load(),
	}
}
