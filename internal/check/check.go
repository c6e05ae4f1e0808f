// Package check is the pluggable conflict-detection layer: one interface
// behind which every answer to "can this operation issue at cycle c?" lives.
//
// The paper's contribution is making that inner-loop question fast. The
// reservation-table answer is the flat probe plan (internal/probeplan),
// the engine every scheduler, the query layer and the Engine use by
// default; the §10 finite-state-automaton baseline (internal/automata)
// stays selectable as the paper's comparison. This package puts them
// behind the Checker interface so consumers select a backend by Kind
// instead of hard-coding a representation. Modulo scheduling takes no
// backend: it probes the probe plan folded modulo the initiation interval
// (probeplan.Modulo) directly.
//
// Backends are not interchangeable in every role: the automaton answers
// probes fast but cannot release a reservation or probe backward (the
// §10 limitation), so unscheduling-based and random-access techniques
// must reject it. The Capabilities report encodes exactly that matrix;
// consumers gate on it rather than on concrete types. Conflict
// attribution is not a backend capability: it is the reservation-table
// prober's one walk (probeplan.Prober.Blocker), and a context on any
// other backend attributes nothing.
package check

import (
	"fmt"

	"mdes/internal/automata"
	"mdes/internal/lowlevel"
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

// ParseKind resolves a backend name ("probeplan", "automaton").
func ParseKind(s string) (Kind, error) {
	for _, k := range Kinds() {
		if s == k.String() {
			return k, nil
		}
	}
	return 0, fmt.Errorf("check: unknown checker backend %q (valid: probeplan, automaton)", s)
}

// Capabilities reports what a backend can and cannot do, so consumers gate
// on abilities instead of concrete types. The capability matrix follows
// the paper's §10 comparison: reservation tables keep the identity of
// every reservation (release, eviction, conflict attribution are
// straightforward), while the automaton folds reservations into opaque
// DFA states and loses it.
type Capabilities struct {
	// Backend is the backend's name, as reported in tool output and the
	// observability layer.
	Backend string
	// CanRelease reports whether Release undoes a Reserve; the query
	// layer gates its trial placements on it.
	CanRelease bool
	// MonotonicOnly restricts probes to non-decreasing issue cycles
	// (cycle-driven forward scheduling); backward and operation-driven
	// scheduling need random access and must reject such backends.
	MonotonicOnly bool
}

// Caps returns the static capability report for a selectable Kind.
func Caps(k Kind) Capabilities {
	if k == KindAutomaton {
		return Capabilities{Backend: "automaton", MonotonicOnly: true}
	}
	return Capabilities{Backend: "probeplan", CanRelease: true}
}

// Selection identifies the per-tree option choices of one successful
// Check, so the reservation can be applied and (on backends that support
// it) later released. The embedded probeplan.Selection carries the
// constraint, issue cycle, and chosen option indices for every backend;
// next is the automaton backend's successor state.
type Selection struct {
	probeplan.Selection
	next int
}

// Checker answers issue-time resource-constraint probes for one borrowed
// context over one frozen compiled MDES. A Checker holds per-client
// mutable state and must not be used from more than one goroutine at a
// time; backends share read-only (or internally synchronized) structures
// across instances.
type Checker interface {
	// Check tests whether the constraint can be satisfied with the
	// operation issued at cycle issue, accounting one Attempt plus the
	// options and resource probes performed into c. Nothing is reserved
	// until Reserve is called with the returned Selection. A Selection
	// stays valid until the checker's next Reset (arena-backed backends
	// recycle selection storage there); callers must not retain one
	// across Resets.
	Check(con *lowlevel.Constraint, issue int, c *stats.Counters) (Selection, bool)
	// Reserve applies a successful Selection.
	Reserve(sel Selection)
	// Release undoes a previous Reserve. Backends with
	// Capabilities.CanRelease == false panic.
	Release(sel Selection)
	// Reset clears all reservations, retaining storage.
	Reset()
	// Capabilities reports what this backend supports.
	Capabilities() Capabilities
}

// Factory builds per-context Checker instances of one Kind for one frozen
// compiled MDES, owning whatever state the backend shares across contexts
// (the automaton's memoized DFA). One Factory serves any number of
// concurrent contexts.
type Factory struct {
	kind Kind

	// shared is the lazily-populated DFA every automaton checker walks.
	shared *automata.Shared
	// classOf maps constraint pointers back to their index (the
	// automaton's class alphabet).
	classOf map[*lowlevel.Constraint]int
	// plan is the flat probe program every probe-plan checker walks.
	plan *probeplan.Plan
}

// NewFactory validates that the backend can drive the compiled description
// and returns a factory for it. The automaton backend requires at most 64
// resources and non-negative usage times (run the usage-time shift first),
// exactly as the §10 construction assumes; the probe-plan backend requires
// a description whose constraints carry their compiled indices (hand-built
// or sliced views cannot be planned).
func NewFactory(m *lowlevel.MDES, kind Kind) (*Factory, error) {
	f := &Factory{kind: kind}
	switch kind {
	case KindProbePlan:
		plan, err := probeplan.Compile(m)
		if err != nil {
			return nil, err
		}
		f.plan = plan
	case KindAutomaton:
		sh, err := automata.NewShared(m)
		if err != nil {
			return nil, err
		}
		f.shared = sh
		f.classOf = make(map[*lowlevel.Constraint]int, len(m.Constraints))
		for i, con := range m.Constraints {
			f.classOf[con] = i
		}
	default:
		return nil, fmt.Errorf("check: unknown checker backend %s", kind)
	}
	return f, nil
}

// Kind returns the backend the factory builds.
func (f *Factory) Kind() Kind { return f.kind }

// Capabilities returns the capability report of the factory's backend.
func (f *Factory) Capabilities() Capabilities { return Caps(f.kind) }

// New returns a fresh per-context checker instance.
func (f *Factory) New() Checker {
	if f.kind == KindAutomaton {
		return &Automaton{shared: f.shared, classOf: f.classOf}
	}
	return NewProbePlan(f.plan)
}
