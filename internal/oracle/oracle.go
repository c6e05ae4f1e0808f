// Package oracle is the semantics reference for the differential
// correctness harness: a deliberately naive conflict checker that
// interprets the unoptimized, fully-expanded flat reservation tables of a
// machine with a hash map and nested loops.
//
// It shares no code with the optimized paths it judges — no bit vectors,
// no packed masks, no per-tree greedy search, no window management. An
// operation can issue at a cycle exactly when some fully-enumerated
// reservation-table option (in priority order) finds all of its
// (resource, cycle) slots free; placing it marks exactly the first such
// option's slots busy. That is the paper's §3 semantics read directly off
// the traditional OR-form representation, so every optimization pass and
// every checker backend can be compared against it: an optimized MDES must
// accept exactly the same schedules as this interpreter (§4: "the exact
// same schedule is produced in each case").
//
// The oracle is intentionally slow; it exists to be obviously correct.
package oracle

import (
	"fmt"
	"sort"

	"mdes/internal/hmdes"
	"mdes/internal/lowlevel"
)

// Slot is one reserved (resource, absolute cycle) cell of the flat
// reservation table.
type Slot struct {
	Res   int
	Cycle int
}

// Oracle interprets one machine's unoptimized flat tables. It is
// single-goroutine mutable state, like the checkers it references.
type Oracle struct {
	mdes *lowlevel.MDES
	// ii, when positive, folds every slot's cycle modulo ii (see Fold).
	ii   int
	busy map[Slot]bool
	// trail remembers each placement's slots so Unplace can undo the most
	// recent one (the naive analog of Checker.Release).
	trail [][]Slot
}

// New compiles the machine's traditional representation (FormOR, no
// optimization passes) and returns its naive interpreter. The compile is
// private to the oracle, so callers cannot accidentally hand it an
// already-transformed description.
func New(mach *hmdes.Machine) *Oracle {
	return &Oracle{
		mdes: lowlevel.Compile(mach, lowlevel.FormOR),
		busy: map[Slot]bool{},
	}
}

// MDES exposes the oracle's private unoptimized compile, for tests that
// need the same description (operation indices, usage-time bounds) the
// oracle interprets.
func (o *Oracle) MDES() *lowlevel.MDES { return o.mdes }

// Reset frees every slot.
func (o *Oracle) Reset() {
	o.busy = map[Slot]bool{}
	o.trail = nil
}

// Fold frees every slot and folds the table modulo ii: from then on slot
// (res, c) is (res, c mod ii), the modulo reservation table of software
// pipelining, and an option with two usages that fold onto one slot
// never fits.
func (o *Oracle) Fold(ii int) {
	o.Reset()
	o.ii = ii
}

// slot returns the table cell usage u occupies when its operation issues
// at cycle issue.
func (o *Oracle) slot(u lowlevel.Usage, issue int) Slot {
	c := issue + int(u.Time)
	if o.ii > 0 {
		c = (c%o.ii + o.ii) % o.ii
	}
	return Slot{Res: int(u.Res), Cycle: c}
}

// optionFits reports whether every usage of the flat option is free when
// the operation issues at cycle issue.
func (o *Oracle) optionFits(opt *lowlevel.Option, issue int) bool {
	for i, u := range opt.Usages {
		s := o.slot(u, issue)
		if o.busy[s] {
			return false
		}
		for _, v := range opt.Usages[:i] {
			if o.ii > 0 && o.slot(v, issue) == s {
				return false
			}
		}
	}
	return true
}

// firstOption returns the index of the highest-priority flat option of the
// operation's table that fits at issue, or -1. FormOR constraints have
// exactly one tree — the fully expanded table.
func (o *Oracle) firstOption(opIdx, issue int) (*lowlevel.Option, int) {
	tree := o.mdes.ConstraintFor(opIdx, false).Trees[0]
	for i, opt := range tree.Options {
		if o.optionFits(opt, issue) {
			return opt, i
		}
	}
	return nil, -1
}

// Probe reports whether operation opIdx can issue at cycle issue against
// the current reservations, without reserving anything.
func (o *Oracle) Probe(opIdx, issue int) bool {
	_, i := o.firstOption(opIdx, issue)
	return i >= 0
}

// Place issues operation opIdx at cycle issue, reserving the slots of the
// highest-priority fitting option, and reports whether any option fit.
func (o *Oracle) Place(opIdx, issue int) bool {
	opt, i := o.firstOption(opIdx, issue)
	if i < 0 {
		return false
	}
	slots := make([]Slot, 0, len(opt.Usages))
	for _, u := range opt.Usages {
		s := o.slot(u, issue)
		o.busy[s] = true
		slots = append(slots, s)
	}
	o.trail = append(o.trail, slots)
	return true
}

// Unplace undoes the most recent successful Place.
func (o *Oracle) Unplace() {
	if len(o.trail) == 0 {
		panic("oracle: Unplace without a Place")
	}
	last := o.trail[len(o.trail)-1]
	o.trail = o.trail[:len(o.trail)-1]
	for _, s := range last {
		delete(o.busy, s)
	}
}

// Slots returns the currently reserved slots in deterministic order, for
// comparison against a checker backend's reservation snapshot.
func (o *Oracle) Slots() []Slot {
	out := make([]Slot, 0, len(o.busy))
	for s := range o.busy {
		out = append(out, s)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Cycle != out[j].Cycle {
			return out[i].Cycle < out[j].Cycle
		}
		return out[i].Res < out[j].Res
	})
	return out
}

// ScheduleInOrder issues the operation stream in order, each operation at
// the earliest feasible cycle at or after max(its arrival, the previous
// operation's issue cycle), and returns the issue cycles. In-order issue
// keeps probe cycles non-decreasing, so the identical policy can drive
// every checker backend — including the monotonic-only automaton — and
// their schedules must match the oracle's cycle for cycle.
func (o *Oracle) ScheduleInOrder(stream, arrivals []int, maxWait int) ([]int, error) {
	issues := make([]int, len(stream))
	prev := 0
	for i, opIdx := range stream {
		cycle := arrivals[i]
		if cycle < prev {
			cycle = prev
		}
		start := cycle
		for !o.Place(opIdx, cycle) {
			cycle++
			if cycle-start > maxWait {
				return nil, fmt.Errorf("oracle: op %d (%s) found no issue cycle within %d of %d",
					i, o.mdes.Operations[opIdx].Name, maxWait, start)
			}
		}
		issues[i] = cycle
		prev = cycle
	}
	return issues, nil
}

// TimeBounds returns the minimum and maximum usage time across the flat
// tables — the probe-window envelope (decode-stage usages make min
// negative).
func (o *Oracle) TimeBounds() (min, max int) {
	return TimeBounds(o.mdes)
}

// TimeBounds returns the minimum and maximum usage time across any
// compiled description's options (packed or scalar).
func TimeBounds(m *lowlevel.MDES) (min, max int) {
	for _, opt := range m.Options {
		for _, u := range opt.ExpandedUsages() {
			if int(u.Time) < min {
				min = int(u.Time)
			}
			if int(u.Time) > max {
				max = int(u.Time)
			}
		}
	}
	return min, max
}
