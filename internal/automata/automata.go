// Package automata implements the related-work baseline of the paper's
// §10: finite-state-automaton hazard detection in the style of Proebsting
// & Fraser, Müller, and Bala & Rubin. Instead of checking reservation
// tables against an RU map, the scheduler walks a lazily-constructed DFA
// whose states summarize the resource commitments of the current issue
// window; asking "can class C issue now?" is a memoized transition lookup.
//
// The automaton is built over the same compiled MDES the reservation-table
// checker uses, so the two approaches are directly comparable (the
// ablation benchmark in bench_test.go and the equivalence tests here do
// exactly that). As the paper notes, the automaton answers queries
// quickly but does not identify *which* operations cause a conflict, so
// unscheduling-based techniques (iterative modulo scheduling) cannot use
// it; reservation tables keep that ability.
//
// Construction requires all usage times to be non-negative (run the
// usage-time shift first — opt.ShiftUsageTimes — exactly as automata
// papers assume issue-relative usages).
//
// Shared serves one frozen description to many concurrent contexts, each
// walking it with its own Cursor: the backend a resctx.Context holds as
// Auto when an engine selects the automaton. A cursor only moves forward
// and cannot release, so the schedulers that probe backward or revisit
// earlier cycles refuse it, and iterative modulo scheduling never takes
// it.
package automata

import (
	"fmt"
	"sync"
	"sync/atomic"

	"mdes/internal/lowlevel"
	"mdes/internal/probeplan"
	"mdes/internal/stats"
)

// state is the resource occupancy of the issue window: one word per
// future cycle (cycle 0 = now), windowed to the machine's maximum usage
// time. Machines with ≤64 resources fit one word per cycle.
type state []uint64

// key converts a state to a map key.
func (s state) key() string {
	b := make([]byte, 0, len(s)*8)
	for _, w := range s {
		for i := 0; i < 8; i++ {
			b = append(b, byte(w>>(8*uint(i))))
		}
	}
	return string(b)
}

// Automaton is a lazily-built DFA over window states.
type Automaton struct {
	mdes   *lowlevel.MDES
	window int // cycles of lookahead (max usage time + 1)

	states  map[string]int // state key -> id
	byID    []state
	issue   []map[int]issueEdge // per state id: class index -> edge
	advance []int               // per state id: id after one-cycle advance (-1 unknown)

	// Lookups counts memoized transition queries (the automaton analog of
	// the paper's "resource checks").
	Lookups int64
	// Misses counts queries that had to construct a new transition.
	Misses int64
}

type issueEdge struct {
	ok   bool
	next int
	// chosen[i] is the option index greedily selected in the class's
	// tree i when the edge was constructed (nil for infeasible edges).
	// Immutable after construction, so concurrent readers may share it.
	chosen []int
}

// New builds an empty automaton for the compiled MDES. It returns an
// error if any usage time is negative (shift first) or if the machine
// needs more than 64 resources.
func New(m *lowlevel.MDES) (*Automaton, error) {
	if m.NumResources > 64 {
		return nil, fmt.Errorf("automata: %d resources exceed the single-word limit", m.NumResources)
	}
	window := 1
	for _, o := range m.Options {
		for _, u := range usagesOf(o) {
			if u.Time < 0 {
				return nil, fmt.Errorf("automata: negative usage time %d (apply the usage-time shift first)", u.Time)
			}
			if int(u.Time)+1 > window {
				window = int(u.Time) + 1
			}
		}
	}
	a := &Automaton{mdes: m, window: window, states: map[string]int{}}
	a.intern(make(state, window)) // state 0: empty window
	return a, nil
}

// usagesOf expands packed options back to scalar usages for construction;
// the automaton's runtime never touches them again.
func usagesOf(o *lowlevel.Option) []lowlevel.Usage {
	return o.ExpandedUsages()
}

func (a *Automaton) intern(s state) int {
	k := s.key()
	if id, ok := a.states[k]; ok {
		return id
	}
	id := len(a.byID)
	a.states[k] = id
	a.byID = append(a.byID, append(state(nil), s...))
	a.issue = append(a.issue, map[int]issueEdge{})
	a.advance = append(a.advance, -1)
	return id
}

// Start returns the empty-window start state.
func (a *Automaton) Start() int { return 0 }

// States returns the number of DFA states constructed so far.
func (a *Automaton) States() int { return len(a.byID) }

// MemoryBytes estimates the automaton's memory: per state, the window
// words plus its transition entries (16 bytes per issue edge, 4 per
// advance edge), mirroring the explicit accounting of the MDES size model.
func (a *Automaton) MemoryBytes() int {
	bytes := 0
	for id := range a.byID {
		bytes += a.window*8 + 4
		bytes += len(a.issue[id]) * 16
	}
	return bytes
}

// TryIssue asks whether an operation of the given class (constraint index)
// can issue in the current cycle of state id; on success it returns the
// successor state with the operation's resources committed. The transition
// is constructed on first use and memoized thereafter.
func (a *Automaton) TryIssue(id, class int) (int, bool) {
	a.Lookups++
	if e, ok := a.issue[id][class]; ok {
		return e.next, e.ok
	}
	a.Misses++
	e := a.buildIssue(id, class)
	return e.next, e.ok
}

// buildIssue constructs and memoizes the issue edge for (state, class).
// Callers must have checked the memo first (and, when shared across
// goroutines, must hold the write lock).
func (a *Automaton) buildIssue(id, class int) issueEdge {
	con := a.mdes.Constraints[class]
	cur := a.byID[id]
	next := append(state(nil), cur...)
	chosen, ok := a.commit(next, con)
	e := issueEdge{ok: ok, chosen: chosen}
	if ok {
		e.next = a.intern(next)
	} else {
		e.next = id
	}
	a.issue[id][class] = e
	return e
}

// commit performs greedy per-tree option selection against the window,
// identical to the reservation-table checker's semantics, mutating s on
// success and returning the per-tree option choices.
func (a *Automaton) commit(s state, con *lowlevel.Constraint) ([]int, bool) {
	chosen := make([]int, len(con.Trees))
	for ti, tree := range con.Trees {
		found := -1
		for oi, o := range tree.Options {
			if a.fits(s, o) {
				found = oi
				break
			}
		}
		if found < 0 {
			return nil, false
		}
		chosen[ti] = found
		for _, u := range usagesOf(tree.Options[found]) {
			s[u.Time] |= 1 << uint(u.Res)
		}
	}
	return chosen, true
}

func (a *Automaton) fits(s state, o *lowlevel.Option) bool {
	for _, u := range usagesOf(o) {
		if s[u.Time]&(1<<uint(u.Res)) != 0 {
			return false
		}
	}
	return true
}

// Advance moves the state one cycle forward (the window shifts; the
// now-past cycle drops off).
func (a *Automaton) Advance(id int) int {
	a.Lookups++
	if n := a.advance[id]; n >= 0 {
		return n
	}
	a.Misses++
	return a.buildAdvance(id)
}

// buildAdvance constructs and memoizes the advance edge for a state.
// Callers must have checked the memo first (and, when shared across
// goroutines, must hold the write lock).
func (a *Automaton) buildAdvance(id int) int {
	cur := a.byID[id]
	next := make(state, a.window)
	copy(next, cur[1:])
	n := a.intern(next)
	a.advance[id] = n
	return n
}

// Shared wraps an Automaton for concurrent use by many checker contexts
// over one frozen MDES: memoized transitions are read under a shared lock
// (the steady state once the reachable DFA is built), and only a memo miss
// takes the write lock to construct the new edge. The underlying MDES is
// immutable per the Freeze contract; all automaton mutation happens here,
// under the lock. Counters are atomic so they can be read while schedulers
// run.
type Shared struct {
	mu sync.RWMutex
	a  *Automaton

	lookups atomic.Int64
	misses  atomic.Int64
}

// NewShared builds an empty concurrent automaton over the compiled MDES,
// with the same eligibility rules as New (<= 64 resources, non-negative
// usage times).
func NewShared(m *lowlevel.MDES) (*Shared, error) {
	a, err := New(m)
	if err != nil {
		return nil, err
	}
	return &Shared{a: a}, nil
}

// TryIssue is the concurrent analog of Automaton.TryIssue, additionally
// returning the per-tree option choices recorded on the edge (shared,
// immutable — callers must not modify it).
func (s *Shared) TryIssue(id, class int) (next int, chosen []int, ok bool) {
	s.lookups.Add(1)
	s.mu.RLock()
	e, hit := s.a.issue[id][class]
	s.mu.RUnlock()
	if hit {
		return e.next, e.chosen, e.ok
	}
	s.misses.Add(1)
	s.mu.Lock()
	defer s.mu.Unlock()
	if e, hit := s.a.issue[id][class]; hit {
		return e.next, e.chosen, e.ok
	}
	e = s.a.buildIssue(id, class)
	return e.next, e.chosen, e.ok
}

// Advance is the concurrent analog of Automaton.Advance.
func (s *Shared) Advance(id int) int {
	s.lookups.Add(1)
	s.mu.RLock()
	n := s.a.advance[id]
	s.mu.RUnlock()
	if n >= 0 {
		return n
	}
	s.misses.Add(1)
	s.mu.Lock()
	defer s.mu.Unlock()
	if n := s.a.advance[id]; n >= 0 {
		return n
	}
	return s.a.buildAdvance(id)
}

// Start returns the empty-window start state.
func (s *Shared) Start() int { return 0 }

// States returns the number of DFA states constructed so far.
func (s *Shared) States() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.a.States()
}

// MemoryBytes estimates the shared automaton's memory.
func (s *Shared) MemoryBytes() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.a.MemoryBytes()
}

// Lookups returns the total memoized transition queries so far.
func (s *Shared) Lookups() int64 { return s.lookups.Load() }

// Misses returns the queries that had to construct a new transition.
func (s *Shared) Misses() int64 { return s.misses.Load() }

// Cursor is one context's walk over a Shared automaton: the current DFA
// state and its cycle. Asking "can class C issue at cycle c?" is a
// memoized transition lookup; the accounting unit is one resource check
// per transition consulted (issue or advance), the automaton analog of
// one probed mask.
//
// The cursor only moves forward: probes must use non-decreasing issue
// cycles, reservations cannot be released, and a failed probe cannot
// name the blocking operation — the exact trade-off the paper describes
// for automaton-based hazard detection. A Cursor serves one goroutine at
// a time.
type Cursor struct {
	shared *Shared

	state int
	cycle int
	// next is the successor state of the last successful Check, which
	// Reserve commits.
	next int
}

// NewCursor returns a cursor at the empty-window start state.
func (s *Shared) NewCursor() *Cursor { return &Cursor{shared: s} }

// Check tests whether con can issue at cycle issue, accounting one
// Attempt, one option and one resource check per transition consulted
// into c. Checking at a cycle beyond the cursor commits the intervening
// cycle advances (time passage, not reservation); checking before the
// cursor panics, since the window has already shifted past it. The
// selection's Chosen is the transition's recorded option choice, shared
// with every cursor and read-only.
func (cur *Cursor) Check(con *lowlevel.Constraint, issue int, c *stats.Counters) (probeplan.Selection, bool) {
	cons := cur.shared.a.mdes.Constraints
	class := con.Index
	if class < 0 || class >= len(cons) || cons[class] != con {
		panic(fmt.Sprintf("automata: constraint %q not in the automaton's MDES", con.Name))
	}
	if issue < cur.cycle {
		panic(fmt.Sprintf("automata: probed at cycle %d behind the cursor at %d (monotonic only)", issue, cur.cycle))
	}
	for cur.cycle < issue {
		cur.state = cur.shared.Advance(cur.state)
		cur.cycle++
		c.ResourceChecks++
	}
	c.Attempts++
	c.OptionsChecked++
	c.ResourceChecks++
	next, chosen, ok := cur.shared.TryIssue(cur.state, class)
	if !ok {
		c.Conflicts++
		return probeplan.Selection{}, false
	}
	cur.next = next
	return probeplan.Selection{Constraint: con, Issue: issue, Chosen: chosen}, true
}

// Reserve commits the successor state of the last successful Check,
// which must be the one that returned sel.
func (cur *Cursor) Reserve(sel probeplan.Selection) { cur.state = cur.next }

// Reset returns the cursor to the empty-window start state at cycle
// zero. The shared DFA and its memoized transitions are retained.
func (cur *Cursor) Reset() {
	cur.state = cur.shared.Start()
	cur.cycle = 0
}
