package obs

import (
	"mdes/internal/lowlevel"
	"mdes/internal/obs/flight"
	"mdes/internal/obs/profile"
	"mdes/internal/stats"
)

// Views is the set of observation views one pool's contexts fold into:
// the metrics registry, the conflict profile, the flight recorder and the
// trace. A nil field is a detached view. NewLocal sizes a buffer for
// exactly the attached views, and Local.Merge is the one fold of a
// buffer into all of them.
type Views struct {
	Metrics *Registry
	Profile *profile.Profile
	Flight  *flight.Recorder
	// Trace receives each block's record at the block's end: every
	// attempt and conflict, the block's ID, size, length and counters.
	// The buffer reuses one record for all of a context's blocks, so the
	// callback must not retain it past its return.
	Trace func(*BlockRecord)
	// MDES is the observed description, and every attached view must be
	// shaped by it. It sizes the per-constraint and per-resource counters
	// and names the machine and the resources in trace records; it is
	// required when Metrics, Profile or Trace is set.
	MDES *lowlevel.MDES
}

// Local is a borrowed context's one observation buffer: single-goroutine
// plain stores, no locks, no atomics, no allocations in steady state. It
// is fed three events — Attempt and Conflict by the context's probe
// helpers (resctx.Context.Place and Probe), BlockDone once per scheduler
// exit — and each event folds at once into the share of every attached
// view, except that the metrics view's per-phase totals fold a block's
// counters at its BlockDone; a detached view's share costs one nil check
// per event. On release, Merge folds the buffer into the attached
// aggregates and resets it.
//
// The counting share the metrics and profile views keep is one
// stats.Tally (see Tally), which a probe-plan prober fills itself as it
// probes; the probe helper then emits only the rest of each event (Note,
// TraceConflict). Its slots are journaled on their first touch, so Merge
// and reset walk only what a borrow touched: per-release cost is
// proportional to observed activity, not to the description's size.
type Local struct {
	v *Views
	// The attached metrics view, copied out of v for the hot path.
	reg *Registry
	// probes reports that some view consumes Attempt events (metrics,
	// profile or trace); blame, that the metrics or profile share wants
	// every failed attempt attributed.
	probes, blame bool

	// Metrics share (the per-phase counters are last: they are large and
	// an attempt touches one).
	dirty bool
	tick  uint32

	// Shared by metrics and profile (nil with neither): per constraint
	// attempts, options and conflicts, per resource conflicts and, for
	// the profile, per option slot the successes that chose it and per
	// tree slot the failures it was first to fail. Merge derives the
	// profile's blocked counts from the selections of the multi-option
	// trees (the layout's) of the touched constraints. slots is the
	// profile's scratch for one success's option slots.
	tally  *stats.Tally
	layout *profile.Layout
	slots  []int32

	// Trace share: the one record every block of this buffer fills (nil
	// without the trace view), and whether the attempt just reported
	// went into it.
	rec    *BlockRecord
	traced bool
	// failed is the constraint index of the last failed attempt, which
	// a Conflict event attributes.
	failed int

	// Flight share: completed blocks not yet in the recorder, and the
	// clock reading the current block started at.
	ring  []flight.Entry
	n     int
	start int64

	phases [NumPhases]localPhase
}

// NewLocal returns an empty buffer sized for the attached views.
func (v *Views) NewLocal() *Local {
	l := &Local{
		v:      v,
		reg:    v.Metrics,
		probes: v.Metrics != nil || v.Profile != nil || v.Trace != nil,
		blame:  v.Metrics != nil || v.Profile != nil,
	}
	if v.Trace != nil {
		l.rec = &BlockRecord{Machine: v.MDES.MachineName, Events: []Event{}}
	}
	if l.blame {
		trees, opts := 0, 0
		if v.Profile != nil {
			l.layout = v.Profile.Layout()
			trees, opts = l.layout.NumSlots()
		}
		l.tally = stats.NewTally(len(v.MDES.Constraints), trees, opts, len(v.MDES.ResourceNames), v.Profile != nil)
	}
	if v.Flight != nil {
		l.ring = make([]flight.Entry, v.Flight.PerContext())
	}
	return l
}

// Begin marks a borrow: the metrics in-flight gauge counts the context,
// and the first block's clock starts (a block runs from the previous
// BlockDone on the same borrowed context, or from the borrow).
func (l *Local) Begin() {
	if r := l.v.Metrics; r != nil {
		r.AddInFlight(1)
	}
	if l.v.Flight != nil {
		l.start = Nanotime()
	}
}

// PerAttempt reports whether any attached view consumes Attempt events.
// With none — no views, or the flight recorder alone — probes skip the
// events. A nil buffer has none.
func (l *Local) PerAttempt() bool { return l != nil && l.probes }

// Tally returns the counting share of the Attempt and Conflict events,
// nil when no attached view counts (neither metrics nor profile). A
// backend that tallies its own probes into it (probeplan.Prober.Tally)
// spares its probe helper those shares: the helper emits Note instead of
// Attempt, and TraceConflict instead of Conflict.
func (l *Local) Tally() *stats.Tally { return l.tally }

// Notes reports whether Note has anything to record for some attempt:
// the metrics view times attempts and counts those outside any block,
// and the trace records every one. Without either, a backend that
// tallies (see Tally) leaves its probe helper no event to emit.
func (l *Local) Notes() bool { return l.reg != nil || l.rec != nil }

// Attributes reports whether the attempt just reported, having failed,
// wants the Conflict event: always for the metrics and profile shares,
// and for the trace share when the attempt belongs to a block.
func (l *Local) Attributes() bool { return l.blame || l.traced }

// Start begins one attempt: it returns a clock reading for the one
// attempt in TimestampPeriod the metrics view times, -1 otherwise. The
// probe helper hands Attempt the time elapsed since a reading, or -1.
func (l *Local) Start() int64 {
	if l.reg == nil {
		return -1
	}
	if l.tick++; l.tick%TimestampPeriod != 1 {
		return -1
	}
	return Nanotime()
}

// Attempt is the event of one instrumented probe: the phase, the
// constraint probed, the operation's index in its block (op < 0 for a
// probe outside any block, such as a query, which the trace skips) and
// opcode, the candidate cycle, the options and resource checks consumed,
// the probe's wall time in ns (-1 when untimed, see Start), whether it
// succeeded, and on success the option chosen in each tree.
//
// The metrics share counts a block's attempts in its phase totals at the
// block's BlockDone, from the block's counters, which hold exactly what
// its Attempt events report; an attempt outside any block folds its own
// through the same call at once. The rest is the counting share, which
// a tallying prober keeps itself (see Tally), and Note.
func (l *Local) Attempt(p Phase, con *lowlevel.Constraint, op int, opcode string, cycle int, options, checks, ns int64, ok bool, chosen []int) {
	l.count(con, options, ok, chosen)
	l.Note(p, op, opcode, cycle, options, checks, ns, ok, chosen)
}

// Note is the Attempt event without its counting share: the metrics
// view's timing and an attempt outside any block, and the trace.
func (l *Local) Note(p Phase, op int, opcode string, cycle int, options, checks, ns int64, ok bool, chosen []int) {
	if l.reg != nil {
		if ns >= 0 {
			l.dirty = true
			l.phases[p].recordNs(ns)
		}
		if op < 0 {
			c := stats.Counters{Attempts: 1, OptionsChecked: options, ResourceChecks: checks}
			if !ok {
				c.Conflicts = 1
			}
			l.fold(p, &c)
		}
	}
	if l.rec != nil {
		l.traceAttempt(op, opcode, cycle, options, ok, chosen)
	}
}

// Counts reports whether an attempt's Attempt event is its counting
// share alone (Note has nothing to record): one inside a block
// (op >= 0), untimed (ns < 0), with no trace attached. A probe helper
// whose backend tallies that share itself then emits nothing.
func (l *Local) Counts(op int, ns int64) bool { return op >= 0 && ns < 0 && l.rec == nil }

// count is the counting share of an Attempt, kept once for the metrics
// and profile views in the tally: the constraint's attempt, options and
// conflict and, on success, the option slot chosen in each of its trees
// (a choice outside its tree counts nowhere). It also notes a failed
// attempt's constraint for the Conflict event that attributes it.
func (l *Local) count(con *lowlevel.Constraint, options int64, ok bool, chosen []int) {
	ci := con.Index
	if !ok {
		l.failed = ci
	}
	t := l.tally
	if t == nil || uint(ci) >= uint(len(t.Cons)) {
		return
	}
	if !ok {
		t.Failed(ci, options, -1, -1)
		return
	}
	var slots []int32
	if l.layout != nil {
		firsts := l.layout.Firsts(ci)
		_, end := l.layout.Options(ci)
		slots = l.slots[:0]
		for i, k := range chosen[:min(len(chosen), len(firsts))] {
			hi := end
			if i+1 < len(firsts) {
				hi = firsts[i+1]
			}
			if j := firsts[i] + int32(k); j >= firsts[i] && j < hi {
				slots = append(slots, j)
			}
		}
		l.slots = slots
	}
	t.Succeeded(ci, options, slots)
}

// traceAttempt is the trace share of an Attempt: the open block's record
// gains the attempt, with the option chosen in the constraint's first
// tree. Out of line, so the other views' shares stay cheap to call.
func (l *Local) traceAttempt(op int, opcode string, cycle int, options int64, ok bool, chosen []int) {
	if l.traced = op >= 0; !l.traced {
		return
	}
	choice := 0
	if ok && len(chosen) > 0 {
		choice = chosen[0]
	}
	l.rec.Events = append(l.rec.Events, Event{
		Kind: "attempt", Op: op, Opcode: opcode, Cycle: cycle,
		Options: int(options), Choice: choice, OK: ok,
	})
}

// Conflict is the event attributing the attempt just reported, which
// failed, as the prober's one attribution (probeplan.Prober.Blocked)
// found it: the position of the first unsatisfiable tree within the
// constraint, the resource blocking that tree's preferred option, and
// the blocking usage's time relative to the issue cycle. A negative tree
// or resource is unattributed.
func (l *Local) Conflict(tree, res, time int) {
	if t := l.tally; t != nil && uint(l.failed) < uint(len(t.Cons)) {
		slot := -1
		if l.layout != nil {
			slot = l.layout.TreeSlot(l.failed, tree)
		}
		t.Blame(slot, res)
	}
	if l.traced && res >= 0 {
		l.traceConflict(l.failed, tree, res, time)
	}
}

// TraceConflict is the Conflict event without its counting share (the
// tally's blame), for the failed attempt of con just reported: the
// trace's conflict record, when that attempt went into the trace.
func (l *Local) TraceConflict(con *lowlevel.Constraint, tree, res, time int) {
	if l.traced && res >= 0 {
		l.traceConflict(con.Index, tree, res, time)
	}
}

// traceConflict records a conflict of constraint ci in the open block's
// record ahead of the failed attempt it explains, naming the blocked
// tree's preferred option by its HMDES provenance (falling back to the
// tree's).
func (l *Local) traceConflict(ci, tree, res, time int) {
	cons := l.v.MDES.Constraints
	if uint(ci) >= uint(len(cons)) || uint(tree) >= uint(len(cons[ci].Trees)) {
		return
	}
	t := cons[ci].Trees[tree]
	src := t.Options[0].Src
	if src == "" {
		src = t.Src
	}
	ev := append(l.rec.Events, Event{})
	a := &ev[len(ev)-2]
	ev[len(ev)-1] = *a
	*a = Event{Kind: "conflict", Op: a.Op, Opcode: a.Opcode, Cycle: a.Cycle,
		Res: l.v.MDES.ResourceNames[res], Time: time, Src: src}
	l.rec.Events = ev
}

// BlockDone is the event every scheduler exit emits exactly once: the
// block's phase and ID, its operation count, its schedule length (-1 for
// a failed schedule) and its counters. It folds the block's counters
// into the metrics share's phase totals, hands the block's record to the
// trace view, and records one flight entry with one clock reading. A nil
// buffer ignores it, at the cost of the inlined nil check.
func (l *Local) BlockDone(p Phase, block int64, ops, length int, c stats.Counters) {
	if l != nil {
		l.blockDone(p, block, ops, length, &c)
	}
}

func (l *Local) blockDone(p Phase, block int64, ops, length int, c *stats.Counters) {
	if l.reg != nil {
		l.fold(p, c)
	}
	if r := l.rec; r != nil {
		r.Block, r.Ops, r.Length, r.Counters = block, ops, length, *c
		l.v.Trace(r)
		r.Events, l.traced = r.Events[:0], false
	}
	if fr := l.v.Flight; fr != nil {
		now := Nanotime()
		e := &l.ring[l.n]
		*e = flight.Entry{
			Block:      block,
			Phase:      p,
			Ops:        int32(ops),
			Length:     int32(length),
			WallNs:     now - l.start,
			Attempts:   c.Attempts,
			Options:    c.OptionsChecked,
			Checks:     c.ResourceChecks,
			Conflicts:  c.Conflicts,
			Backtracks: c.Backtracks,
		}
		slow := fr.Classify(e)
		if l.n++; l.n == len(l.ring) {
			fr.Merge(l.ring)
			l.n, slow = 0, true
		}
		if slow {
			// Anomaly retention and ring spills are the recorder's own
			// work: keep them off the next block's clock.
			now = Nanotime()
		}
		l.start = now
	}
}

// fold adds counters to phase p's totals in the metrics share: a
// block's at its BlockDone, a lone attempt's outside any block.
func (l *Local) fold(p Phase, c *stats.Counters) {
	if c.Attempts == 0 && c.Backtracks == 0 {
		return
	}
	l.dirty = true
	lp := &l.phases[p]
	lp.attempts += c.Attempts
	lp.options += c.OptionsChecked
	lp.checks += c.ResourceChecks
	lp.conflicts += c.Conflicts
	lp.backtracks += c.Backtracks
}

// Merge is the one fold of a released context's buffer into every
// attached view — the registry's atomics, the profile's atomics, the
// flight recorder — after which the buffer is reset for the next borrow.
func (l *Local) Merge() {
	v := l.v
	if r := v.Metrics; r != nil {
		r.merge(l)
		r.AddInFlight(-1)
	}
	if p, t := v.Profile, l.tally; p != nil && len(t.TouchedCon) > 0 {
		for _, ci := range t.TouchedCon {
			p.AddConstraint(int(ci), t.Cons[ci].Attempts, t.Cons[ci].Conflicts)
			// An option was probed busy once for every selection of a
			// later option in its tree.
			for _, mt := range l.layout.Multi(int(ci)) {
				blocked := int64(0)
				for o := mt.Hi - 1; o >= mt.Lo; o-- {
					if sel := t.Selected[o]; sel|blocked != 0 {
						p.AddOption(int(o), sel, blocked)
						blocked += sel
					}
				}
			}
		}
		for _, ti := range t.TouchedTree {
			p.AddFirstBlock(int(ti), t.First[ti])
		}
		for _, ri := range t.TouchedRes {
			p.AddResource(int(ri), t.Res[ri])
		}
		p.NoteMerge()
	}
	if f := v.Flight; f != nil {
		f.Merge(l.ring[:l.n])
	}
	l.reset()
}

// reset zeroes the buffer for reuse, walking only the journaled slots.
func (l *Local) reset() {
	if l.dirty {
		l.phases = [NumPhases]localPhase{}
		l.dirty = false
	}
	if t := l.tally; t != nil {
		if t.Selected != nil {
			for _, ci := range t.TouchedCon {
				lo, hi := l.layout.Options(int(ci))
				clear(t.Selected[lo:hi])
			}
		}
		t.Reset()
	}
	if l.rec != nil {
		l.rec.Events, l.traced = l.rec.Events[:0], false
	}
	l.n = 0
}
