package check

import (
	"fmt"

	"mdes/internal/automata"
	"mdes/internal/lowlevel"
	"mdes/internal/stats"
)

// Automaton is the §10 checker backend: a cursor (current DFA state and
// cycle) over the factory's shared, lazily-built collision automaton.
// Asking "can class C issue at cycle c?" is a memoized transition lookup;
// the accounting unit is one resource check per transition consulted
// (issue or advance), the automaton analog of one probed mask.
//
// The cursor only moves forward: probes must use non-decreasing issue
// cycles (Capabilities.MonotonicOnly), reservations cannot be released,
// and a failed probe cannot name the blocking operation — the exact
// trade-off the paper describes for automaton-based hazard detection.
type Automaton struct {
	shared  *automata.Shared
	classOf map[*lowlevel.Constraint]int

	state int
	cycle int
}

// Check implements Checker. Checking at a cycle beyond the cursor commits
// the intervening cycle advances (time passage, not reservation); checking
// before the cursor panics, since the window has already shifted past it.
func (a *Automaton) Check(con *lowlevel.Constraint, issue int, c *stats.Counters) (Selection, bool) {
	class, ok := a.classOf[con]
	if !ok {
		panic(fmt.Sprintf("check: constraint %q not in the automaton's MDES", con.Name))
	}
	if issue < a.cycle {
		panic(fmt.Sprintf("check: automaton backend probed at cycle %d behind its cursor %d (MonotonicOnly)", issue, a.cycle))
	}
	for a.cycle < issue {
		a.state = a.shared.Advance(a.state)
		a.cycle++
		c.ResourceChecks++
	}
	c.Attempts++
	c.OptionsChecked++
	c.ResourceChecks++
	next, chosen, ok := a.shared.TryIssue(a.state, class)
	if !ok {
		c.Conflicts++
		return Selection{}, false
	}
	sel := Selection{next: next}
	sel.Constraint = con
	sel.Issue = issue
	sel.Chosen = append([]int(nil), chosen...)
	return sel, true
}

// Reserve implements Checker: it commits the successor state recorded by
// the Check that produced sel. The selection must come from the most
// recent successful Check at the cursor's cycle.
func (a *Automaton) Reserve(sel Selection) {
	a.state = sel.next
	a.cycle = sel.Issue
}

// Release implements Checker; the automaton cannot unschedule (§10), so
// this always panics. Gate on Capabilities.CanRelease instead of calling.
func (a *Automaton) Release(Selection) {
	panic("check: automaton backend cannot release reservations (§10: unscheduling needs reservation tables)")
}

// Reset implements Checker: back to the empty-window start state at cycle
// zero. The shared DFA and its memoized transitions are retained.
func (a *Automaton) Reset() {
	a.state = a.shared.Start()
	a.cycle = 0
}

// Capabilities implements Checker.
func (a *Automaton) Capabilities() Capabilities { return Caps(KindAutomaton) }

var _ Checker = (*Automaton)(nil)
