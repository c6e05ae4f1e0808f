// Package lowlevel holds the compiled, compiler-facing form of a machine
// description: pooled reservation-table options and OR-trees, per-class
// AND/OR constraints, the operation table, and the explicit byte-accounting
// model behind the paper's size tables.
//
// Two forms exist, mirroring the paper's experimental setup (§4):
//
//   - FormOR: every class's AND/OR-tree is expanded into one flat OR-tree of
//     fully-enumerated options (the "MDES preprocessor" the paper ran to
//     produce the traditional representation);
//   - FormAndOr: classes keep their AND-of-OR-trees structure.
//
// Compilation preserves exactly the sharing the MDES author expressed
// (named trees referenced by several classes); discovering further sharing
// is the job of the redundancy-elimination transformation in internal/opt,
// just as in the paper (§5).
package lowlevel

import (
	"fmt"
	"sync"
	"sync/atomic"

	"mdes/internal/hmdes"
	"mdes/internal/restable"
)

// Form selects the constraint representation.
type Form int

const (
	// FormOR is the traditional representation: one flat OR-tree per class.
	FormOR Form = iota
	// FormAndOr is the paper's AND/OR-tree representation.
	FormAndOr
)

func (f Form) String() string {
	if f == FormOR {
		return "OR"
	}
	return "AND/OR"
}

// Usage is a scalar resource usage: resource Res busy at cycle Time.
type Usage struct {
	Time int32
	Res  int32
}

// CycleMask is a packed usage: all of one cycle's resources as a bit mask.
// Word indexes the RU-map word for machines with more than 64 resources.
type CycleMask struct {
	Time int32
	Word int32
	Mask uint64
}

// Option is one reservation-table option. Before bit-vector packing the
// Usages slice is authoritative; after packing, Masks is.
type Option struct {
	ID     int
	Usages []Usage     // scalar form, sorted by (Time, Res)
	Masks  []CycleMask // packed form, in check order; nil until packed
	// Src is the option's HMDES provenance: "<tree>[<index>]" for the
	// originating table option within its high-level reservation tree,
	// extended with "!expand" (OR-form cross products), "!hoist" (hoisted
	// common usages) or "/f", "/r" (recovered factors) as transformations
	// derive new options. After CSE an option merged from several
	// identical sources keeps the first source's name. The scheduler hot
	// path never reads Src; only the trace view's conflict provenance
	// (obs.Local.Conflict) and reporting tools do.
	Src string
}

// ExpandedUsages returns the option's usages in scalar form regardless of
// packing: Usages when the option is unpacked, or the masks expanded back
// to (time, resource) pairs when it is packed. Checker backends that need
// per-slot identity (modulo owner tracking, automaton window commits,
// footprint reporting) share this one expansion instead of each keeping a
// private copy. The expansion allocates; hot check paths use Masks
// directly.
func (o *Option) ExpandedUsages() []Usage {
	if o.Masks == nil {
		return o.Usages
	}
	var out []Usage
	for _, m := range o.Masks {
		mask := m.Mask
		for bit := int32(0); mask != 0; bit++ {
			if mask&1 != 0 {
				out = append(out, Usage{Time: m.Time, Res: m.Word*64 + bit})
			}
			mask >>= 1
		}
	}
	return out
}

// NumChecks returns the number of resource checks one test of this option
// performs: one per usage in scalar form, one per cycle-mask when packed.
func (o *Option) NumChecks() int {
	if o.Masks != nil {
		return len(o.Masks)
	}
	return len(o.Usages)
}

// EarliestTime returns the smallest usage time in the option (0 for empty).
func (o *Option) EarliestTime() int32 {
	if o.Masks != nil {
		min := int32(0)
		for i, m := range o.Masks {
			if i == 0 || m.Time < min {
				min = m.Time
			}
		}
		return min
	}
	if len(o.Usages) == 0 {
		return 0
	}
	min := o.Usages[0].Time
	for _, u := range o.Usages[1:] {
		if u.Time < min {
			min = u.Time
		}
	}
	return min
}

// Tree is a prioritized OR-tree over pooled options.
type Tree struct {
	ID      int
	Name    string
	Options []*Option
	// SharedBy counts the constraints referencing this tree; it is the
	// "shared by the most AND/OR-trees" metric of the §8 sort heuristic.
	SharedBy int
	// Src is the tree's HMDES provenance: the high-level reservation
	// tree (or generated clause) it was compiled from, with the same
	// derivation suffixes as Option.Src.
	Src string
}

// EarliestTime returns the minimum usage time across the tree's options.
func (t *Tree) EarliestTime() int32 {
	min := int32(0)
	for i, o := range t.Options {
		e := o.EarliestTime()
		if i == 0 || e < min {
			min = e
		}
	}
	return min
}

// Constraint is one class's execution constraint: an AND over Trees.
// In FormOR there is exactly one tree.
type Constraint struct {
	Name  string
	Trees []*Tree
	// Index is the constraint's position in MDES.Constraints, recorded at
	// compile/decode time so flat probe plans can map a *Constraint to its
	// precompiled spans without a lookup. Hand-built or sliced descriptions
	// (sub-MDES views reuse parent constraint pointers) may leave it stale;
	// consumers that depend on it verify positionally and fall back or fail
	// loudly rather than trusting it blindly.
	Index int
}

// OptionCount returns the number of reservation-table options the
// constraint represents (product over trees).
func (c *Constraint) OptionCount() int {
	n := 1
	for _, t := range c.Trees {
		n *= len(t.Options)
	}
	return n
}

// Operation is the low-level operation-table entry.
type Operation struct {
	Name       string
	Constraint int // index into MDES.Constraints
	Cascaded   int // index of cascaded-form constraint, or -1
	Latency    int
	// SrcTime is the cycle at which source operands are sampled; flow
	// dependence distances subtract it (paper footnote 1).
	SrcTime int
}

// MDES is the compiled machine description.
type MDES struct {
	MachineName string
	Form        Form
	// Packed records whether options carry cycle masks (after the
	// bit-vector transformation).
	Packed bool

	NumResources  int
	ResourceNames []string

	Options     []*Option
	Trees       []*Tree
	Constraints []*Constraint
	ClassIndex  map[string]int

	Operations []*Operation
	OpIndex    map[string]int

	// Bypasses adjusts flow-dependence distances for forwarding paths,
	// keyed by (producer, consumer) operation indices.
	Bypasses map[[2]int]int

	// Immutability contract (see Freeze).
	freezeOnce sync.Once
	freezeErr  error
	frozen     atomic.Bool

	// arenaPlan is the persisted probe-plan layout attached by
	// Arena.FrozenMDES; probeplan.Compile adopts it instead of re-walking
	// the tree graph. Unexported on purpose: only checksum-verified arena
	// views carry one, and descriptions assembled or copied any other way
	// (sub-MDES views, tools) never inherit a stale plan.
	arenaPlan *ArenaPlan
}

// ArenaPlan returns the persisted probe-plan spans attached by
// Arena.FrozenMDES, or nil for descriptions not backed by an arena.
func (m *MDES) ArenaPlan() *ArenaPlan { return m.arenaPlan }

// Freeze validates the description once and marks it immutable: after a
// successful Freeze the MDES is compile-once, validate-once data that any
// number of goroutines may read concurrently without synchronization. All
// mutable scheduling state lives outside the MDES (internal/resctx); the
// transformation pipeline (internal/opt) refuses to run on a frozen
// description. Freeze is idempotent and safe to call from multiple
// goroutines; every call returns the first call's validation result.
func (m *MDES) Freeze() error {
	m.freezeOnce.Do(func() {
		if err := m.Validate(); err != nil {
			m.freezeErr = fmt.Errorf("lowlevel: freeze: %w", err)
			return
		}
		m.frozen.Store(true)
	})
	return m.freezeErr
}

// Frozen reports whether Freeze has successfully marked the description
// immutable.
func (m *MDES) Frozen() bool { return m.frozen.Load() }

// freezeTrusted marks the description frozen without re-running Validate.
// Only Arena.FrozenMDES calls it: OpenArena's checksum plus structural
// validation pass already guarantees every invariant Validate checks, and
// skipping the map-based re-validation is what keeps a cache hit in the
// microsecond range.
func (m *MDES) freezeTrusted() {
	m.freezeOnce.Do(func() { m.frozen.Store(true) })
}

// FlowDistance returns the flow-dependence distance from producer to
// consumer operation indices: producer latency, minus consumer source
// sample time, plus any bypass adjustment; never negative.
func (m *MDES) FlowDistance(producer, consumer int) int {
	d := m.Operations[producer].Latency - m.Operations[consumer].SrcTime
	if m.Bypasses != nil {
		d += m.Bypasses[[2]int{producer, consumer}]
	}
	if d < 0 {
		return 0
	}
	return d
}

// Compile lowers an analyzed machine into the requested form.
func Compile(m *hmdes.Machine, form Form) *MDES {
	b := &builder{
		mdes: &MDES{
			MachineName:  m.Name,
			Form:         form,
			NumResources: m.Resources.Len(),
			ClassIndex:   map[string]int{},
			OpIndex:      map[string]int{},
			Bypasses:     map[[2]int]int{},
		},
		treeBySrc: map[*restable.ORTree]*Tree{},
	}
	for i := 0; i < m.Resources.Len(); i++ {
		b.mdes.ResourceNames = append(b.mdes.ResourceNames, m.Resources.Name(i))
	}
	for _, cname := range m.ClassNames {
		class := m.Classes[cname]
		var trees []*Tree
		switch form {
		case FormOR:
			// Expanded cross-product trees carry the class name plus an
			// "!expand" provenance marker: their options have no single
			// authored source.
			trees = []*Tree{b.addTree(class.Expand(), nil, cname+"!expand")}
		case FormAndOr:
			for _, t := range class.Trees {
				trees = append(trees, b.addTree(t, t, t.Name))
			}
		}
		for _, t := range trees {
			t.SharedBy++
		}
		b.mdes.ClassIndex[cname] = len(b.mdes.Constraints)
		b.mdes.Constraints = append(b.mdes.Constraints, &Constraint{Name: cname, Trees: trees, Index: len(b.mdes.Constraints)})
	}
	for _, oname := range m.OpNames {
		op := m.Operations[oname]
		casc := -1
		if op.Cascaded != "" {
			casc = b.mdes.ClassIndex[op.Cascaded]
		}
		b.mdes.OpIndex[oname] = len(b.mdes.Operations)
		b.mdes.Operations = append(b.mdes.Operations, &Operation{
			Name:       oname,
			Constraint: b.mdes.ClassIndex[op.Class],
			Cascaded:   casc,
			Latency:    op.Latency,
			SrcTime:    op.SrcTime,
		})
	}
	for key, adj := range m.Bypasses {
		b.mdes.Bypasses[[2]int{b.mdes.OpIndex[key[0]], b.mdes.OpIndex[key[1]]}] = adj
	}
	return b.mdes
}

type builder struct {
	mdes *MDES
	// treeBySrc preserves author-expressed sharing: the same source
	// *restable.ORTree compiles to the same low-level tree.
	treeBySrc map[*restable.ORTree]*Tree
}

// addTree compiles one OR-tree. src is the identity key for author sharing
// (nil means never shared — expanded OR-form trees); srcName is the HMDES
// provenance label recorded on the tree and its options.
func (b *builder) addTree(t *restable.ORTree, src *restable.ORTree, srcName string) *Tree {
	if src != nil {
		if existing, ok := b.treeBySrc[src]; ok {
			return existing
		}
	}
	lt := &Tree{ID: len(b.mdes.Trees), Name: t.Name, Src: srcName}
	for i, o := range t.Options {
		lt.Options = append(lt.Options, b.addOption(o, fmt.Sprintf("%s[%d]", srcName, i)))
	}
	b.mdes.Trees = append(b.mdes.Trees, lt)
	if src != nil {
		b.treeBySrc[src] = lt
	}
	return lt
}

func (b *builder) addOption(o *restable.Option, srcName string) *Option {
	lo := &Option{ID: len(b.mdes.Options), Src: srcName}
	for _, u := range o.Usages {
		lo.Usages = append(lo.Usages, Usage{Time: int32(u.Time), Res: int32(u.Res)})
	}
	b.mdes.Options = append(b.mdes.Options, lo)
	return lo
}

// ConstraintFor returns the constraint for an operation, selecting the
// cascaded form when requested and available. Its Index is the
// opcode-class key the observation views attribute attempts to.
func (m *MDES) ConstraintFor(opIdx int, cascaded bool) *Constraint {
	op := m.Operations[opIdx]
	if cascaded && op.Cascaded >= 0 {
		return m.Constraints[op.Cascaded]
	}
	return m.Constraints[op.Constraint]
}

// ConstraintNames returns the constraint (opcode class) names in index
// order, for sizing an observability registry.
func (m *MDES) ConstraintNames() []string {
	names := make([]string, len(m.Constraints))
	for i, c := range m.Constraints {
		names[i] = c.Name
	}
	return names
}

// Validate performs internal-consistency checks; transformations call it in
// tests to guarantee they preserve structural invariants.
func (m *MDES) Validate() error {
	optSeen := map[*Option]bool{}
	for _, o := range m.Options {
		if optSeen[o] {
			return fmt.Errorf("lowlevel: option %d pooled twice", o.ID)
		}
		optSeen[o] = true
		if m.Packed && o.Masks == nil && len(o.Usages) > 0 {
			return fmt.Errorf("lowlevel: option %d not packed in packed MDES", o.ID)
		}
	}
	treeSeen := map[*Tree]bool{}
	for _, t := range m.Trees {
		if treeSeen[t] {
			return fmt.Errorf("lowlevel: tree %d pooled twice", t.ID)
		}
		treeSeen[t] = true
		if len(t.Options) == 0 {
			return fmt.Errorf("lowlevel: tree %d (%s) has no options", t.ID, t.Name)
		}
		for _, o := range t.Options {
			if !optSeen[o] {
				return fmt.Errorf("lowlevel: tree %d references unpooled option", t.ID)
			}
		}
	}
	for ci, c := range m.Constraints {
		if len(c.Trees) == 0 {
			return fmt.Errorf("lowlevel: constraint %d (%s) has no trees", ci, c.Name)
		}
		if m.Form == FormOR && len(c.Trees) != 1 {
			return fmt.Errorf("lowlevel: OR-form constraint %d has %d trees", ci, len(c.Trees))
		}
		for _, t := range c.Trees {
			if !treeSeen[t] {
				return fmt.Errorf("lowlevel: constraint %d references unpooled tree", ci)
			}
		}
	}
	for oi, op := range m.Operations {
		if op.Constraint < 0 || op.Constraint >= len(m.Constraints) {
			return fmt.Errorf("lowlevel: operation %d constraint out of range", oi)
		}
		if op.Cascaded >= len(m.Constraints) {
			return fmt.Errorf("lowlevel: operation %d cascaded out of range", oi)
		}
	}
	return nil
}
