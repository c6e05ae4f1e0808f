// Package resctx provides the session layer between one immutable compiled
// machine description and its many concurrent consumers.
//
// The compiled lowlevel.MDES is compile-once, validate-once data: after
// Freeze it is never mutated, so any number of goroutines may share one
// copy (the paper's premise is that one description serves a compiler's
// hottest inner loop; in a long-running service the same artifact must
// serve many inner loops at once). All per-client mutable state — the
// reservation table, the instrumentation counters, the observation
// buffer and the scheduling scratch — lives in a Context instead.
// Consumers (the list schedulers, the query interface, the modulo
// scheduler) borrow a Context, run against the shared MDES, and return
// it.
//
// A Context holds its reservation table as a concrete backend, never
// behind an interface: the probe-plan prober (PP), the default, which
// releases and attributes conflicts; the plan folded modulo an
// initiation interval (Mod), which only the modulo scheduler uses; or a
// cursor over the §10 collision automaton (Auto), kept as the paper's
// comparison, which does neither. The automaton only moves forward, so
// the schedulers that need random access test Auto and refuse it. Every
// consumer probes through Context.Place, which reserves what it probed
// in the same walk, or Context.Probe, which only checks: the check
// itself, the paper's counters, and — when the pool observes — the
// Attempt and Conflict events into the context's one observation buffer
// (obs.Local), with conflicts attributed from the failed probe's stash.
// A probe-plan context whose views count has its prober tally those
// events' counting shares into the buffer as it probes (Context.Observe).
//
// A Pool recycles Contexts of one backend Kind via sync.Pool and
// aggregates the counters of every returned Context, giving a service
// both allocation-free steady state and global instrumentation totals
// without any per-check synchronization: counters are accumulated
// locally in the borrowed Context and folded into the pool's atomic
// totals exactly once, on Put, which also folds the observation buffer
// into every attached view. Put and Context.Release are idempotent, so a
// double release can neither double-count a context's counters nor hand
// the same context to two borrowers.
package resctx

import (
	"fmt"
	"sync"
	"sync/atomic"

	"mdes/internal/automata"
	"mdes/internal/ir"
	"mdes/internal/lowlevel"
	"mdes/internal/obs"
	"mdes/internal/probeplan"
	"mdes/internal/stats"
)

// Kind names a selectable checker backend.
type Kind int

const (
	// KindProbePlan is the default (zero) backend: the paper's packed
	// AND/OR-tree reservation-table check, with the description compiled
	// once into contiguous span arrays of packed probe words
	// (internal/probeplan), walked by slice iteration with arena-backed
	// selections.
	KindProbePlan Kind = iota
	// KindAutomaton is the §10 related-work backend: memoized transitions
	// of a lazily-built collision DFA shared across all contexts.
	KindAutomaton
)

func (k Kind) String() string {
	switch k {
	case KindProbePlan:
		return "probeplan"
	case KindAutomaton:
		return "automaton"
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// Kinds returns every selectable backend, default first.
func Kinds() []Kind { return []Kind{KindProbePlan, KindAutomaton} }

// ParseKind resolves a backend name ("probeplan", "automaton"), the
// values the tools accept for -checker.
func ParseKind(s string) (Kind, error) {
	for _, k := range Kinds() {
		if s == k.String() {
			return k, nil
		}
	}
	return 0, fmt.Errorf("check: unknown checker backend %q (valid: probeplan, automaton)", s)
}

// Context is the per-client mutable state for scheduling and querying
// against one shared compiled MDES. A Context must not be used from more
// than one goroutine at a time; borrow one per goroutine instead.
//
// At most one of PP, Mod and Auto is set: PP for the reservation-table
// engine, Mod for the modulo scheduler's folded table (probed through a
// context sharing the scheduler's borrowed buffer), Auto for the §10
// automaton. A context that only accounts carries none.
type Context struct {
	// PP is the probe-plan prober — the reservation-table engine every
	// scheduler, the query layer and the Engine probe by default.
	PP *probeplan.Prober
	// Mod is the probe plan folded modulo an initiation interval.
	Mod *probeplan.Modulo
	// Auto is a cursor over the shared §10 automaton (KindAutomaton).
	// It probes only at non-decreasing cycles and cannot release.
	Auto *automata.Cursor
	// Arena is the per-context scratch allocator for schedule-sized
	// scratch slices; the block schedulers carve all per-block state
	// from it, so the steady-state probe loop allocates nothing.
	Arena Arena
	// Builder is the dependence-graph constructor every scheduler
	// builds its blocks' graphs with; its scratch persists across the
	// blocks and borrows of this context.
	Builder ir.Builder
	// Timing is the Builder's timing adapter, pointed at each block's
	// hoisted operation indices; living here, it reaches the Builder
	// as an interface without an allocation.
	Timing lowlevel.BlockTiming
	// Counters accumulates the attempts / options checked / resource
	// checks performed through this context since it was borrowed.
	Counters stats.Counters
	// Obs, when non-nil, is the context's one observation buffer, folded
	// into every attached view on release. Nil when the pool observes
	// nothing and on standalone contexts. Observe sets it.
	Obs *obs.Local
	// probes is Obs when the probe helper has per-attempt events to
	// emit, nil otherwise, so an attempt no view observes costs one nil
	// check; tallied reports that PP tallies its probes into Obs's tally
	// itself (obs.Local.Tally), which leaves the helper no event to emit
	// unless Obs notes attempts (obs.Local.Notes).
	probes  *obs.Local
	tallied bool

	pool *Pool
	// released guards the release path: folding a context's counters
	// into the pool totals must happen at most once per borrow (see
	// Pool.Put).
	released bool
}

// Standalone returns a standalone (unpooled) Context probing m's
// FrozenPlan — the one-call setup behind sched.New and query.New. Release
// on a standalone Context is a no-op, so single-client code can treat
// pooled and unpooled Contexts uniformly.
func Standalone(m *lowlevel.MDES) *Context {
	return &Context{PP: probeplan.NewProber(FrozenPlan(m))}
}

// FrozenPlan freezes m and compiles its probe plan. Freezing makes the
// plan a faithful snapshot: the transformation pipeline refuses a frozen
// description, so no later pass can leave a prober walking stale spans.
// It panics with the validator's or the planner's message when m cannot
// be frozen or planned.
func FrozenPlan(m *lowlevel.MDES) *probeplan.Plan {
	if err := m.Freeze(); err != nil {
		panic(err)
	}
	plan, err := probeplan.Compile(m)
	if err != nil {
		panic(err)
	}
	return plan
}

// Probe is the probe of the paths that do not reserve what they probe
// (the modulo scheduler, which reserves into its fold itself, and pure
// queries): it checks con at cycle against the context's backend,
// accounting into ctr (per-block or per-call counters; callers fold them
// into c.Counters themselves), and returns the selection and the options
// checked during the attempt (Figure 2's per-attempt quantity). When a
// per-attempt view is attached it also emits the Attempt event (timing
// one attempt in obs.TimestampPeriod) and, for a failed probe the views
// want attributed, the Conflict event from the prober's stash of the
// failed probe; other backends attribute nothing. op and opcode name the
// operation within its block for the trace (op < 0 outside any block).
func (c *Context) Probe(phase obs.Phase, op int, opcode string, con *lowlevel.Constraint, cycle int, ctr *stats.Counters) (probeplan.Selection, bool, int64) {
	chosen, ok, opts := c.attempt(false, phase, op, opcode, con, cycle, ctr)
	if !ok {
		return probeplan.Selection{}, false, opts
	}
	return probeplan.Selection{Constraint: con, Issue: cycle, Chosen: chosen}, true, opts
}

// Place is Probe that, on success, also reserves what it probed: the
// probe every scheduler attempt, reserving query and replay issues. The
// prober reserves in the same walk (probeplan.Prober.Place); the
// automaton checks and commits its successor state. It emits the same
// events as Probe and returns the option chosen in each tree, valid
// until the next probe. A modulo context has no Place (it panics): the
// modulo scheduler places through Probe and probeplan.Modulo.Reserve.
func (c *Context) Place(phase obs.Phase, op int, opcode string, con *lowlevel.Constraint, cycle int, ctr *stats.Counters) ([]int, bool, int64) {
	return c.attempt(true, phase, op, opcode, con, cycle, ctr)
}

// attempt is Probe, or with reserve set Place: the backend's probe and
// the attempt's events. It returns the option chosen in each tree. A
// prober that tallies (Observe) has kept the events' counting shares,
// which leaves the events without them (Note, TraceConflict), and
// nothing at all for an untimed attempt inside a block with no trace
// attached (obs.Local.Counts).
func (c *Context) attempt(reserve bool, phase obs.Phase, op int, opcode string, con *lowlevel.Constraint, cycle int, ctr *stats.Counters) ([]int, bool, int64) {
	l := c.probes
	observed := l != nil
	o0, k0, ns := ctr.OptionsChecked, ctr.ResourceChecks, int64(-1)
	if observed {
		ns = l.Start()
	}
	var sel probeplan.Selection
	var ok bool
	switch {
	case c.PP != nil && reserve:
		sel.Chosen, ok = c.PP.Place(con, cycle, ctr)
	case c.PP != nil:
		sel, ok = c.PP.Check(con, cycle, ctr)
	case c.Mod != nil:
		if reserve {
			panic("resctx: Place on a modulo context; reserve with probeplan.Modulo.Reserve")
		}
		sel, ok = c.Mod.Check(con, cycle, ctr)
	default:
		if sel, ok = c.Auto.Check(con, cycle, ctr); ok && reserve {
			c.Auto.Reserve(sel)
		}
	}
	opts := ctr.OptionsChecked - o0
	if !observed {
		return sel.Chosen, ok, opts
	}
	if ns >= 0 {
		ns = obs.Nanotime() - ns
	}
	if c.tallied {
		if !l.Counts(op, ns) {
			l.Note(phase, op, opcode, cycle, opts, ctr.ResourceChecks-k0, ns, ok, sel.Chosen)
			if !ok {
				tree, res, time := c.PP.Blocked()
				l.TraceConflict(con, tree, res, time)
			}
		}
		return sel.Chosen, ok, opts
	}
	l.Attempt(phase, con, op, opcode, cycle, opts, ctr.ResourceChecks-k0, ns, ok, sel.Chosen)
	if !ok && c.PP != nil && l.Attributes() {
		l.Conflict(c.PP.Blocked())
	}
	return sel.Chosen, ok, opts
}

// Observe makes l the context's observation buffer (nil detaches it).
// When l counts (obs.Local.Tally) and the context probes a probe plan,
// the prober tallies every probe into it.
func (c *Context) Observe(l *obs.Local) {
	c.Obs, c.probes, c.tallied = l, nil, false
	if l.PerAttempt() {
		c.tallied = c.PP != nil && l.Tally() != nil
		if !c.tallied || l.Notes() {
			c.probes = l
		}
	}
	if c.PP != nil {
		var t *stats.Tally
		if c.tallied {
			t = l.Tally()
		}
		c.PP.Tally(t)
	}
}

// ResetReservations clears the backend's reservations, retaining storage.
func (c *Context) ResetReservations() {
	if c.PP != nil {
		c.PP.Reset()
	} else if c.Auto != nil {
		c.Auto.Reset()
	}
}

// Reset clears the backend's reservations and counters, retaining all
// storage. The observation buffer resets when the pool merges it.
func (c *Context) Reset() {
	c.ResetReservations()
	c.Counters = stats.Counters{}
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

// NewPool freezes m and returns a pool of contexts on the kind backend.
// The probe-plan backend compiles m's plan once and gives each context
// its own prober; the automaton backend builds one shared, lazily
// populated DFA and gives each context its own cursor. It fails when m
// cannot be frozen or planned, or when the automaton cannot drive m: at
// most 64 resources and no negative usage time (run the usage-time
// shift first), as the §10 construction assumes.
func NewPool(m *lowlevel.MDES, kind Kind) (*Pool, error) {
	if err := m.Freeze(); err != nil {
		return nil, err
	}
	var backend func() *Context
	switch kind {
	case KindProbePlan:
		plan, err := probeplan.Compile(m)
		if err != nil {
			return nil, err
		}
		backend = func() *Context { return &Context{PP: probeplan.NewProber(plan)} }
	case KindAutomaton:
		sh, err := automata.NewShared(m)
		if err != nil {
			return nil, err
		}
		backend = func() *Context { return &Context{Auto: sh.NewCursor()} }
	default:
		return nil, fmt.Errorf("resctx: unknown checker backend %s", kind)
	}
	pl := &Pool{}
	pl.p.New = func() any {
		c := backend()
		c.pool = pl
		return c
	}
	return pl, nil
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
			c.Observe(p.views.NewLocal())
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
