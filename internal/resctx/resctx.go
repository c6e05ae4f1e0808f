// Package resctx provides the session layer between one immutable compiled
// machine description and its many concurrent consumers.
//
// The compiled lowlevel.MDES is compile-once, validate-once data: after
// Freeze it is never mutated, so any number of goroutines may share one
// copy (the paper's premise is that one description serves a compiler's
// hottest inner loop; in a long-running service the same artifact must
// serve many inner loops at once). All per-client mutable state — the
// conflict checker (internal/check backend instance), the instrumentation
// counters, the observation buffer, and the selection scratch buffers —
// lives in a Context instead. Consumers (the list schedulers, the query
// interface, the modulo scheduler) borrow a Context, run against the
// shared MDES, and return it.
//
// Every consumer probes through one helper, Context.Probe: the Check
// itself, the paper's counters, and — when the pool observes — the
// Attempt and Conflict events into the context's one observation buffer
// (obs.Local), with conflicts attributed by the prober's one walk.
//
// A Pool recycles Contexts via sync.Pool and aggregates the counters of
// every returned Context, giving a service both allocation-free steady
// state and global instrumentation totals without any per-check
// synchronization: counters are accumulated locally in the borrowed
// Context and folded into the pool's atomic totals exactly once, on Put,
// which also folds the observation buffer into every attached view. Put
// and Context.Release are idempotent, so a double release can neither
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
	"mdes/internal/probeplan"
	"mdes/internal/stats"
)

// Context is the per-client mutable state for scheduling and querying
// against one shared compiled MDES. A Context must not be used from more
// than one goroutine at a time; borrow one per goroutine instead.
//
// Exactly one of PP and Checker is set on a context that probes: PP for
// the reservation-table engine, Checker for the §10 automaton or a
// private map (the modulo scheduler probes its modulo map through a
// context sharing its borrowed buffer). A context that only accounts
// carries neither.
type Context struct {
	// PP is the probe-plan prober — the reservation-table engine every
	// scheduler, the query layer and the Engine probe by default.
	PP *probeplan.Prober
	// Checker is the automaton backend (check.KindAutomaton), or the
	// modulo scheduler's private map; nil whenever PP is set.
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
	// Obs, when non-nil, is the context's one observation buffer, folded
	// into every attached view on release. Nil when the pool observes
	// nothing and on standalone contexts.
	Obs *obs.Local
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

// Probe is the one probe the list, backward, op-driven, query and modulo
// paths issue: it checks con at cycle against the context's backend,
// accounting into ctr (per-block or per-call counters; callers fold them
// into c.Counters themselves), and returns the options checked during
// the attempt (Figure 2's per-attempt quantity). When a per-attempt view
// is attached it also emits the Attempt event (timing one attempt in
// obs.TimestampPeriod) and, for a failed probe the views want
// attributed, the Conflict event from the prober's one attribution walk;
// other backends attribute nothing. op and opcode name the operation
// within its block for the trace (op < 0 outside any block).
func (c *Context) Probe(phase obs.Phase, op int, opcode string, con *lowlevel.Constraint, cycle int, ctr *stats.Counters) (check.Selection, bool, int64) {
	l := c.Obs
	observed := l.PerAttempt()
	o0, k0, ns := ctr.OptionsChecked, ctr.ResourceChecks, int64(-1)
	if observed {
		ns = l.Start()
	}
	var sel check.Selection
	var ok bool
	if c.PP != nil {
		sel.Selection, ok = c.PP.Check(con, cycle, ctr)
	} else {
		sel, ok = c.Checker.Check(con, cycle, ctr)
	}
	opts := ctr.OptionsChecked - o0
	if !observed {
		return sel, ok, opts
	}
	if ns >= 0 {
		ns = obs.Nanotime() - ns
	}
	l.Attempt(phase, con, op, opcode, cycle, opts, ctr.ResourceChecks-k0, ns, ok, sel.Chosen)
	if !ok && c.PP != nil && l.Attributes() {
		l.Conflict(c.PP.Blocker(con, cycle))
	}
	return sel, ok, opts
}

// ResetReservations clears the backend's reservations, retaining storage.
func (c *Context) ResetReservations() {
	if c.PP != nil {
		c.PP.Reset()
	} else if c.Checker != nil {
		c.Checker.Reset()
	}
}

// Reset clears the backend's reservations and counters, retaining all
// storage. The observation buffer resets when the pool merges it.
func (c *Context) Reset() {
	c.ResetReservations()
	c.Counters = stats.Counters{}
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

	views *obs.Views
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

// Observe attaches the observation views every Context borrowed after
// this call folds into: each carries one obs.Local, merged into the views
// on release. Must be called before the first Get (mdes.NewEngine
// configures it at construction).
func (p *Pool) Observe(v *obs.Views) { p.views = v }

// Get borrows a clean Context. The caller must return it with Put (or
// Context.Release) when done.
func (p *Pool) Get() *Context {
	c := p.p.Get().(*Context)
	c.released = false
	if p.views != nil {
		if c.Obs == nil {
			c.Obs = p.views.NewLocal()
		}
		c.Obs.Begin()
	}
	return c
}

// Put folds the Context's counters into the pool totals (and its
// observation buffer into the attached views), resets it, and makes it
// available for reuse. Put is idempotent per borrow: a second Put of
// the same Context is a no-op, so its counters cannot be double-counted
// and the pool cannot hand the same Context to two borrowers.
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
	if c.Obs != nil {
		c.Obs.Merge()
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
