// Package profile implements the conflict-attribution profile: a
// mergeable, serializable record of where a workload's scheduling probes
// actually go — per constraint, per OR-tree position within the
// constraint, and per option within each tree.
//
// The metrics registry (internal/obs) aggregates by phase, opcode class,
// and blocking resource; that answers "where is time spent" but not "which
// tree inside this constraint blocks first" or "which option usually
// wins", which is exactly what a layout-tuning pass needs. The paper's §8
// orderings (sort OR-trees earliest-usage-first, time-zero-first usage
// order) are static guesses at those frequencies; this package measures
// the ground truth so opt.ReorderFromProfile can replace the guess with
// the observation.
//
// The Profile is one view of the per-context observation buffer
// (obs.Local), not a buffer of its own:
//
//   - Each borrowed scheduling context carries one buffer, fed by the
//     probe helper's Attempt and Conflict events with plain stores, no
//     locks, no atomics, no allocations. Per-constraint attempts and
//     conflicts and per-resource conflicts are counted there once and
//     shared with the metrics view; the profile's own share is the
//     per-option selected/blocked counts and the per-tree first-block
//     counts. A detached profile costs one nil check per event.
//   - On pool release (resctx.Pool.Put) the buffer folds its journaled
//     counts into the shared Profile's atomic counters (the Add methods)
//     and resets for reuse.
//
// The profile's shape is a Layout compiled once from the frozen
// description: flattened (constraint → tree slot → option slot) prefix
// arrays, so every hot-path bump is one indexed increment. Shared trees get one slot per (constraint, position)
// referencing them — deliberately: the reorder decision is per position,
// and the same tree may block first in one constraint and never in
// another.
//
// A Snapshot serializes to JSON (the /debug/profile endpoint) and to a
// content-addressed binary artifact (MDPF, see encode.go) keyed by
// description fingerprint × workload, so a tuning run can prove which
// description and which workload produced the evidence it acted on.
package profile

import (
	"encoding/json"
	"io"
	"sync/atomic"

	"mdes/internal/lowlevel"
)

// Layout is the flattened index space of one compiled description:
// constraint c owns tree slots conTree[c]..conTree[c+1], tree slot t owns
// option slots treeOpt[t]..treeOpt[t+1]. It is built once (against the
// description the engine will schedule with, after optimization) and
// shared read-only by every observation buffer.
type Layout struct {
	conNames  []string // per constraint
	treeNames []string // per tree slot: Tree.Name, falling back to Src
	optSrcs   []string // per option slot: Option.Src provenance
	resNames  []string
	conTree   []int32 // len(conNames)+1 prefix sums
	treeOpt   []int32 // len(treeNames)+1 prefix sums
	// Single-option trees need no per-option hot-path accounting: the
	// only option is chosen on every constraint success, so Snapshot
	// reconstructs Selected = attempts - conflicts exactly. A success
	// therefore walks only a precompiled list of each constraint's
	// multi-option trees — conMulti[conMultiStart[c]:conMultiStart[c+1]]
	// — instead of every chosen tree. Most trees are single-option, so
	// the common walk is zero or one entry; this is the main lever
	// keeping profiling inside the overhead gate.
	conMultiStart []int32     // len(conNames)+1 prefix sums into conMulti
	conMulti      []MultiTree // multi-option tree slots, grouped by constraint
}

// MultiTree locates one multi-option tree inside its constraint: Tree is
// the tree's position in the constraint's AND-list (the index into
// probeplan.Selection.Chosen), [Lo, Hi) its option-slot range.
type MultiTree struct {
	Tree   int32
	Lo, Hi int32
}

// NewLayout flattens the description's constraint/tree/option structure.
func NewLayout(m *lowlevel.MDES) *Layout {
	l := &Layout{
		resNames:      append([]string(nil), m.ResourceNames...),
		conTree:       make([]int32, 1, len(m.Constraints)+1),
		treeOpt:       make([]int32, 1, len(m.Trees)+1),
		conMultiStart: make([]int32, 1, len(m.Constraints)+1),
	}
	for _, c := range m.Constraints {
		l.conNames = append(l.conNames, c.Name)
		for ti, t := range c.Trees {
			name := t.Name
			if name == "" {
				name = t.Src
			}
			l.treeNames = append(l.treeNames, name)
			o0 := int32(len(l.optSrcs))
			for _, o := range t.Options {
				l.optSrcs = append(l.optSrcs, o.Src)
			}
			l.treeOpt = append(l.treeOpt, int32(len(l.optSrcs)))
			if len(t.Options) > 1 {
				l.conMulti = append(l.conMulti, MultiTree{
					Tree: int32(ti), Lo: o0, Hi: int32(len(l.optSrcs)),
				})
			}
		}
		l.conTree = append(l.conTree, int32(len(l.treeNames)))
		l.conMultiStart = append(l.conMultiStart, int32(len(l.conMulti)))
	}
	return l
}

// NumConstraints returns the number of constraints in the layout.
func (l *Layout) NumConstraints() int { return len(l.conNames) }

// NumSlots returns the number of tree slots and option slots.
func (l *Layout) NumSlots() (trees, options int) { return len(l.treeNames), len(l.optSrcs) }

// TreeSlot returns the tree slot of constraint con's tree-th tree, or -1
// when either index is out of range.
func (l *Layout) TreeSlot(con, tree int) int {
	if uint(con) >= uint(len(l.conNames)) {
		return -1
	}
	t0 := int(l.conTree[con])
	if tree < 0 || t0+tree >= int(l.conTree[con+1]) {
		return -1
	}
	return t0 + tree
}

// Multi returns constraint con's multi-option trees. A success need only
// walk these: a single-option tree's only option is chosen on every
// success of its constraint, so Snapshot reconstructs its Selected count
// as attempts - conflicts.
func (l *Layout) Multi(con int) []MultiTree {
	return l.conMulti[l.conMultiStart[con]:l.conMultiStart[con+1]]
}

// Meta identifies what a profile is evidence about: which description
// (fingerprint), scheduled with which checker backend, over which
// workload. Machine and fingerprint are stamped by the engine at
// construction; the workload tag is stamped by whichever tool drives the
// run (e.g. "seeded:ops=20000,seed=1996").
type Meta struct {
	Machine     string `json:"machine"`
	MachineHash string `json:"machine_hash"`
	Checker     string `json:"checker,omitempty"`
	Workload    string `json:"workload,omitempty"`
}

// Profile is the shared, concurrency-safe accumulation point: atomic
// per-slot counters that observation buffers fold into on context
// release.
type Profile struct {
	layout       *Layout
	meta         atomic.Pointer[Meta]
	machineHash  atomic.Pointer[func() string]
	attempts     []atomic.Int64
	conflicts    []atomic.Int64
	firstBlock   []atomic.Int64
	selected     []atomic.Int64
	blocked      []atomic.Int64
	resConflicts []atomic.Int64
	merges       atomic.Int64
}

// New builds an empty profile shaped like the given description. The
// description must be the one the engine schedules with (same constraint,
// tree, and option order) or attribution indices will not line up.
func New(m *lowlevel.MDES) *Profile {
	l := NewLayout(m)
	p := &Profile{
		layout:       l,
		attempts:     make([]atomic.Int64, len(l.conNames)),
		conflicts:    make([]atomic.Int64, len(l.conNames)),
		firstBlock:   make([]atomic.Int64, len(l.treeNames)),
		selected:     make([]atomic.Int64, len(l.optSrcs)),
		blocked:      make([]atomic.Int64, len(l.optSrcs)),
		resConflicts: make([]atomic.Int64, len(l.resNames)),
	}
	p.meta.Store(&Meta{Machine: m.MachineName})
	return p
}

// Layout returns the profile's index space.
func (p *Profile) Layout() *Layout { return p.layout }

// SetMeta stamps the description identity (mirrors flight.Recorder.SetMeta;
// called by the engine before scheduling starts). machineHash is called
// by Meta, never here, so stamping an engine costs no fingerprint.
func (p *Profile) SetMeta(machine string, machineHash func() string, checker string) {
	m := *p.meta.Load()
	m.Machine, m.Checker = machine, checker
	p.machineHash.Store(&machineHash)
	p.meta.Store(&m)
}

// SetWorkload stamps the workload tag (called by the driving tool).
func (p *Profile) SetWorkload(workload string) {
	m := *p.meta.Load()
	m.Workload = workload
	p.meta.Store(&m)
}

// Meta returns the current identity stamp.
func (p *Profile) Meta() Meta {
	m := *p.meta.Load()
	if f := p.machineHash.Load(); f != nil {
		m.MachineHash = (*f)()
	}
	return m
}

// The Add methods fold one observation buffer's journaled counts into
// the shared counters when its context is released; they are atomic and
// never run per attempt.

// AddConstraint adds attempts and conflicts to constraint ci.
func (p *Profile) AddConstraint(ci int, attempts, conflicts int64) {
	p.attempts[ci].Add(attempts)
	p.conflicts[ci].Add(conflicts)
}

// AddFirstBlock adds n first-block events to tree slot t.
func (p *Profile) AddFirstBlock(t int, n int64) { p.firstBlock[t].Add(n) }

// AddOption adds selected and blocked probes to option slot o.
func (p *Profile) AddOption(o int, selected, blocked int64) {
	p.selected[o].Add(selected)
	p.blocked[o].Add(blocked)
}

// AddResource adds n attributed conflicts to resource ri.
func (p *Profile) AddResource(ri int, n int64) { p.resConflicts[ri].Add(n) }

// NoteMerge counts one folded buffer (Snapshot.Merges).
func (p *Profile) NoteMerge() { p.merges.Add(1) }

// OptionProfile is one option slot's observed behaviour.
type OptionProfile struct {
	Src string `json:"src,omitempty"`
	// Selected counts successful probes that picked this option.
	Selected int64 `json:"selected"`
	// Blocked counts probes (successful at the tree level) that found
	// this option busy and moved on to a later one.
	Blocked int64 `json:"blocked"`
}

// TreeProfile is one (constraint, position) tree slot.
type TreeProfile struct {
	Name string `json:"name,omitempty"`
	// FirstBlock counts failed constraint probes where this tree was the
	// first with no free option (the tree that short-circuited the scan).
	FirstBlock int64           `json:"first_block"`
	Options    []OptionProfile `json:"options"`
}

// ConstraintProfile is one constraint's observed probe traffic.
type ConstraintProfile struct {
	Name      string        `json:"name"`
	Attempts  int64         `json:"attempts"`
	Conflicts int64         `json:"conflicts"`
	Trees     []TreeProfile `json:"trees"`
}

// ResourceProfile is one resource's attributed conflict count.
type ResourceProfile struct {
	Resource  string `json:"resource"`
	Conflicts int64  `json:"conflicts"`
}

// Snapshot is a consistent-enough point-in-time copy of the profile
// (counters are read individually; per-slot sums may straddle a concurrent
// merge, exactly like obs.Registry.Snapshot).
type Snapshot struct {
	Meta        Meta                `json:"meta"`
	Merges      int64               `json:"merges"`
	Constraints []ConstraintProfile `json:"constraints"`
	Resources   []ResourceProfile   `json:"resources"`
}

// Snapshot captures the current counters.
func (p *Profile) Snapshot() Snapshot {
	l := p.layout
	s := Snapshot{
		Meta:        p.Meta(),
		Merges:      p.merges.Load(),
		Constraints: make([]ConstraintProfile, len(l.conNames)),
		Resources:   make([]ResourceProfile, len(l.resNames)),
	}
	for ci := range l.conNames {
		cp := &s.Constraints[ci]
		cp.Name = l.conNames[ci]
		cp.Attempts = p.attempts[ci].Load()
		cp.Conflicts = p.conflicts[ci].Load()
		t0, t1 := l.conTree[ci], l.conTree[ci+1]
		cp.Trees = make([]TreeProfile, t1-t0)
		for t := t0; t < t1; t++ {
			tp := &cp.Trees[t-t0]
			tp.Name = l.treeNames[t]
			tp.FirstBlock = p.firstBlock[t].Load()
			o0, o1 := l.treeOpt[t], l.treeOpt[t+1]
			tp.Options = make([]OptionProfile, o1-o0)
			if o1-o0 == 1 {
				// Single-option trees skip hot-path accounting; the only
				// option is chosen on every success of the constraint.
				tp.Options[0] = OptionProfile{
					Src:      l.optSrcs[o0],
					Selected: cp.Attempts - cp.Conflicts,
				}
				continue
			}
			for o := o0; o < o1; o++ {
				tp.Options[o-o0] = OptionProfile{
					Src:      l.optSrcs[o],
					Selected: p.selected[o].Load(),
					Blocked:  p.blocked[o].Load(),
				}
			}
		}
	}
	for ri := range l.resNames {
		s.Resources[ri] = ResourceProfile{
			Resource:  l.resNames[ri],
			Conflicts: p.resConflicts[ri].Load(),
		}
	}
	return s
}

// WriteSnapshot writes the current snapshot as indented JSON (the
// /debug/profile endpoint).
func (p *Profile) WriteSnapshot(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(p.Snapshot())
}
