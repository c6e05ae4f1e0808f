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

// conCount is one constraint's attempt counters, kept once for the
// metrics view (per-class attempts, options, conflicts) and the profile
// (per-constraint attempts, conflicts).
type conCount struct{ attempts, options, conflicts int64 }

// Local is a borrowed context's one observation buffer: single-goroutine
// plain stores, no locks, no atomics, no allocations in steady state. It
// is fed three events — Attempt and Conflict by the one probe helper
// (resctx.Context.Probe), BlockDone once per scheduler exit — and each
// event folds at once into the share of every attached view; a detached
// view's share costs one nil check per event. On release, Merge folds the
// buffer into the attached aggregates and resets it.
//
// Slots of the per-constraint, per-resource and profile counters are
// journaled on their 0→1 transition, so Merge and reset walk only what a
// borrow touched: per-release cost is proportional to observed activity,
// not to the description's size.
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

	// Shared by metrics and profile.
	cons       []conCount
	res        []int64
	touchedCon []int32
	touchedRes []int32

	// Profile share. selected counts, per option slot of a multi-option
	// tree, the successes that chose it; Merge derives the blocked counts
	// from them and walks them through the touched constraints.
	layout      *profile.Layout
	selected    []int64
	first       []int64 // per tree slot: first-blocking tree of a failed probe
	touchedTree []int32

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
	// Each journal can hold every slot of its counters, so recording a
	// first touch never grows it.
	if l.blame {
		l.cons = make([]conCount, len(v.MDES.Constraints))
		l.res = make([]int64, len(v.MDES.ResourceNames))
		l.touchedCon = make([]int32, 0, len(l.cons))
		l.touchedRes = make([]int32, 0, len(l.res))
	}
	if v.Profile != nil {
		l.layout = v.Profile.Layout()
		trees, opts := l.layout.NumSlots()
		l.first = make([]int64, trees)
		l.selected = make([]int64, opts)
		l.touchedTree = make([]int32, 0, trees)
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

// Attempt is the event of one instrumented Check: the phase, the
// constraint probed, the operation's index in its block (op < 0 for a
// probe outside any block, such as a query, which the trace skips) and
// opcode, the candidate cycle, the options and resource checks consumed,
// the Check's wall time in ns (-1 when untimed, see Start), whether it
// succeeded, and on success the option chosen in each tree.
func (l *Local) Attempt(p Phase, con *lowlevel.Constraint, op int, opcode string, cycle int, options, checks, ns int64, ok bool, chosen []int) {
	if l.reg != nil {
		l.dirty = true
		lp := &l.phases[p]
		lp.attempts++
		lp.options += options
		lp.checks += checks
		if !ok {
			lp.conflicts++
		}
		if ns >= 0 {
			lp.recordNs(ns)
		}
	}
	if !ok {
		l.failed = con.Index
	}
	if ci := con.Index; uint(ci) < uint(len(l.cons)) {
		cs := &l.cons[ci]
		if cs.attempts == 0 {
			l.touchedCon = journal(l.touchedCon, ci)
		}
		cs.attempts++
		cs.options += options
		if !ok {
			cs.conflicts++
		} else if l.layout != nil {
			// Along each multi-option tree of the constraint the chosen
			// option was selected, and every option before it was probed
			// busy, which Merge counts from the selections; single-option
			// trees need no counts (Layout.Multi).
			for _, mt := range l.layout.Multi(ci) {
				if int(mt.Tree) >= len(chosen) {
					continue
				}
				if j := mt.Lo + int32(chosen[mt.Tree]); j >= mt.Lo && j < mt.Hi {
					l.selected[j]++
				}
			}
		}
	}
	if l.rec != nil {
		l.traceAttempt(op, opcode, cycle, options, ok, chosen)
	}
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

// journal records slot i's first touch in a journal whose capacity holds
// every slot (see NewLocal), so it never grows.
func journal(j []int32, i int) []int32 {
	n := len(j)
	j = j[:n+1]
	j[n] = int32(i)
	return j
}

// Conflict is the event attributing the attempt just reported, which
// failed, as the one attribution walk (probeplan.Prober.Blocker) found
// it: the position of the first unsatisfiable tree within the
// constraint, the resource blocking that tree's preferred option, and
// the blocking usage's time relative to the issue cycle. A negative tree
// or resource is unattributed.
func (l *Local) Conflict(tree, res, time int) {
	if uint(res) < uint(len(l.res)) && uint(l.failed) < uint(len(l.cons)) {
		if l.res[res] == 0 {
			l.touchedRes = journal(l.touchedRes, res)
		}
		l.res[res]++
	}
	if l.layout != nil {
		if t := l.layout.TreeSlot(l.failed, tree); t >= 0 {
			if l.first[t] == 0 {
				l.touchedTree = journal(l.touchedTree, t)
			}
			l.first[t]++
		}
	}
	if l.traced && res >= 0 {
		l.traceConflict(tree, res, time)
	}
}

// traceConflict records a conflict in the open block's record ahead of
// the failed attempt it explains, naming the blocked tree's preferred
// option by its HMDES provenance (falling back to the tree's).
func (l *Local) traceConflict(tree, res, time int) {
	cons := l.v.MDES.Constraints
	if uint(l.failed) >= uint(len(cons)) || uint(tree) >= uint(len(cons[l.failed].Trees)) {
		return
	}
	t := cons[l.failed].Trees[tree]
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
// a failed schedule) and its counters. It folds the block's backtracks
// into the metrics share, hands the block's record to the trace view,
// and records one flight entry with one clock reading. A nil buffer
// ignores it, at the cost of the inlined nil check.
func (l *Local) BlockDone(p Phase, block int64, ops, length int, c stats.Counters) {
	if l != nil {
		l.blockDone(p, block, ops, length, &c)
	}
}

func (l *Local) blockDone(p Phase, block int64, ops, length int, c *stats.Counters) {
	if l.reg != nil && c.Backtracks != 0 {
		l.dirty = true
		l.phases[p].backtracks += c.Backtracks
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

// Merge is the one fold of a released context's buffer into every
// attached view — the registry's atomics, the profile's atomics, the
// flight recorder — after which the buffer is reset for the next borrow.
func (l *Local) Merge() {
	v := l.v
	if r := v.Metrics; r != nil {
		r.merge(l)
		r.AddInFlight(-1)
	}
	if p := v.Profile; p != nil && len(l.touchedCon) > 0 {
		for _, ci := range l.touchedCon {
			p.AddConstraint(int(ci), l.cons[ci].attempts, l.cons[ci].conflicts)
			// An option was probed busy once for every selection of a
			// later option in its tree.
			for _, mt := range l.layout.Multi(int(ci)) {
				blocked := int64(0)
				for o := mt.Hi - 1; o >= mt.Lo; o-- {
					if sel := l.selected[o]; sel|blocked != 0 {
						p.AddOption(int(o), sel, blocked)
						blocked += sel
					}
				}
			}
		}
		for _, t := range l.touchedTree {
			p.AddFirstBlock(int(t), l.first[t])
		}
		for _, ri := range l.touchedRes {
			p.AddResource(int(ri), l.res[ri])
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
	for _, ci := range l.touchedCon {
		l.cons[ci] = conCount{}
		if l.layout != nil {
			for _, mt := range l.layout.Multi(int(ci)) {
				clear(l.selected[mt.Lo:mt.Hi])
			}
		}
	}
	for _, ri := range l.touchedRes {
		l.res[ri] = 0
	}
	for _, t := range l.touchedTree {
		l.first[t] = 0
	}
	l.touchedCon, l.touchedRes = l.touchedCon[:0], l.touchedRes[:0]
	l.touchedTree = l.touchedTree[:0]
	if l.rec != nil {
		l.rec.Events, l.traced = l.rec.Events[:0], false
	}
	l.n = 0
}
