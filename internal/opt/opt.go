// Package opt implements the paper's machine-description transformations:
//
//	§5  EliminateRedundant      — CSE + copy propagation (hash-consing of
//	                              options and OR-trees) and dead-code removal
//	                              (unreferenced pool entries and classes);
//	§5  PruneDominatedOptions   — drop options whose usages are a superset of
//	                              a higher-priority option's;
//	§6  PackBitVectors          — pack one cycle's usages into one mask word;
//	§7  ShiftUsageTimes         — per-resource constant subtraction to
//	                              concentrate usages at time zero;
//	§7  SortUsagesTimeZeroFirst — check time-zero usages first;
//	§8  SortORTrees             — conflict-detection ordering of the OR-trees
//	                              inside each AND/OR-tree;
//	§8  HoistCommonUsages       — move usages common to all options of an
//	                              OR-tree into a one-option OR-tree.
//
// Every pass preserves scheduling semantics exactly: the same operations
// conflict at the same relative cycles and greedy selection reserves the
// same resources, so the scheduler produces identical schedules (verified
// by property tests in equivalence_test.go).
package opt

import (
	"fmt"
	"slices"
	"sort"
	"strings"

	"mdes/internal/lowlevel"
	"mdes/internal/textutil"
)

// Pass names, as recorded in Report.Pass and the pass ledger. Each name is
// prefixed with the Level.String() of the pipeline level that runs the
// pass, so reports, ledger rows, and the tables in internal/experiments
// group under one consistent naming scheme.
const (
	PassEliminateRedundant = "redundancy/eliminate-redundant"
	PassPruneDominated     = "redundancy/prune-dominated-options"
	PassPackBitVectors     = "bit-vector/pack"
	PassShiftUsageTimes    = "time-shift/shift-usage-times"
	PassSortZeroFirst      = "time-shift/sort-zero-first"
	PassSortORTrees        = "full/sort-or-trees"
	PassHoistCommonUsages  = "full/hoist-common-usages"
	// PassFactorORTrees is the extension pass (not part of Apply's
	// pipeline); it runs before redundancy elimination when requested.
	PassFactorORTrees = "factor/or-trees"
	// PassReorderFromProfile is the profile-guided pass (not part of
	// Apply's pipeline); it replaces the §8 static ordering heuristics
	// with frequencies observed by a conflict-attribution profile.
	PassReorderFromProfile = "profile/reorder"
)

// passNameWidth pads Report.String's pass column so consecutive reports
// align regardless of the pass name or count magnitudes.
var passNameWidth = len(PassPruneDominated)

// Report summarizes what a pass changed; each field is a count of removed
// or rewritten entities (zero fields mean the pass was a no-op).
type Report struct {
	Pass            string
	OptionsRemoved  int
	TreesRemoved    int
	ClassesRemoved  int
	OptionsPruned   int
	OptionsPacked   int
	ResourcesShifed int
	TreesReordered  int
	UsagesHoisted   int
	TreesFactored   int
	ChecksReordered int
}

// Changes returns the report's nonzero counts keyed by metric name, the
// stable flattening used by the pass ledger's JSON form.
func (r Report) Changes() map[string]int {
	out := map[string]int{}
	for _, c := range []struct {
		name string
		v    int
	}{
		{"optionsRemoved", r.OptionsRemoved},
		{"treesRemoved", r.TreesRemoved},
		{"classesRemoved", r.ClassesRemoved},
		{"optionsPruned", r.OptionsPruned},
		{"optionsPacked", r.OptionsPacked},
		{"resourcesShifted", r.ResourcesShifed},
		{"treesReordered", r.TreesReordered},
		{"usagesHoisted", r.UsagesHoisted},
		{"treesFactored", r.TreesFactored},
		{"checksReordered", r.ChecksReordered},
	} {
		if c.v != 0 {
			out[c.name] = c.v
		}
	}
	if len(out) == 0 {
		return nil
	}
	return out
}

func (r Report) String() string {
	var parts []string
	add := func(name string, v int) {
		if v != 0 {
			// %d, never a fixed-width verb: counts beyond six digits must
			// render in full rather than disturb the column layout, which
			// is carried entirely by the padded pass-name column.
			parts = append(parts, fmt.Sprintf("%s=%d", name, v))
		}
	}
	add("optionsRemoved", r.OptionsRemoved)
	add("treesRemoved", r.TreesRemoved)
	add("classesRemoved", r.ClassesRemoved)
	add("optionsPruned", r.OptionsPruned)
	add("optionsPacked", r.OptionsPacked)
	add("resourcesShifted", r.ResourcesShifed)
	add("treesReordered", r.TreesReordered)
	add("usagesHoisted", r.UsagesHoisted)
	add("treesFactored", r.TreesFactored)
	add("checksReordered", r.ChecksReordered)
	if len(parts) == 0 {
		parts = append(parts, "no-op")
	}
	return fmt.Sprintf("%-*s  %s", passNameWidth, r.Pass, strings.Join(parts, " "))
}

// FormatReports renders a pass-report list with one aligned column per
// metric that any report touched; counts of any magnitude (seven digits
// and beyond included) keep the columns aligned because widths are
// computed from the rendered values.
func FormatReports(reports []Report) string {
	cols := []struct {
		name string
		get  func(Report) int
	}{
		{"optRemoved", func(r Report) int { return r.OptionsRemoved }},
		{"treeRemoved", func(r Report) int { return r.TreesRemoved }},
		{"classRemoved", func(r Report) int { return r.ClassesRemoved }},
		{"optPruned", func(r Report) int { return r.OptionsPruned }},
		{"optPacked", func(r Report) int { return r.OptionsPacked }},
		{"resShifted", func(r Report) int { return r.ResourcesShifed }},
		{"treeSorted", func(r Report) int { return r.TreesReordered }},
		{"hoisted", func(r Report) int { return r.UsagesHoisted }},
		{"factored", func(r Report) int { return r.TreesFactored }},
		{"chkSorted", func(r Report) int { return r.ChecksReordered }},
	}
	used := make([]bool, len(cols))
	for _, r := range reports {
		for i, c := range cols {
			if c.get(r) != 0 {
				used[i] = true
			}
		}
	}
	header := []string{"Pass"}
	for i, c := range cols {
		if used[i] {
			header = append(header, c.name)
		}
	}
	t := textutil.NewTable(header...)
	for _, r := range reports {
		row := []interface{}{r.Pass}
		for i, c := range cols {
			if used[i] {
				row = append(row, c.get(r))
			}
		}
		t.Row(row...)
	}
	return t.String()
}

// optionKey returns a canonical content key for hash-consing.
func optionKey(o *lowlevel.Option) string {
	var b strings.Builder
	if o.Masks != nil {
		b.WriteByte('P')
		for _, m := range o.Masks {
			fmt.Fprintf(&b, "|%d,%d,%x", m.Time, m.Word, m.Mask)
		}
		return b.String()
	}
	b.WriteByte('S')
	for _, u := range o.Usages {
		fmt.Fprintf(&b, "|%d,%d", u.Time, u.Res)
	}
	return b.String()
}

// treeKey returns a canonical content key for a tree: its option sequence.
// Names are ignored — two trees with identical options are identical.
func treeKey(t *lowlevel.Tree, canon map[*lowlevel.Option]*lowlevel.Option) string {
	var b strings.Builder
	for _, o := range t.Options {
		fmt.Fprintf(&b, "|%p", canon[o])
	}
	return b.String()
}

// EliminateRedundant is the paper's adaptation of common-subexpression
// elimination, copy propagation, and dead-code removal (§5): identical
// options are merged, identical OR-trees are merged, and entities no longer
// referenced by any operation's class — including whole classes — are
// dropped from the pools.
func EliminateRedundant(m *lowlevel.MDES) Report {
	rep := Report{Pass: PassEliminateRedundant}

	// 1. Drop classes referenced by no operation (dead-code removal).
	liveClass := make([]bool, len(m.Constraints))
	for _, op := range m.Operations {
		liveClass[op.Constraint] = true
		if op.Cascaded >= 0 {
			liveClass[op.Cascaded] = true
		}
	}
	remap := make([]int, len(m.Constraints))
	var liveCons []*lowlevel.Constraint
	for i, c := range m.Constraints {
		if liveClass[i] {
			remap[i] = len(liveCons)
			liveCons = append(liveCons, c)
		} else {
			remap[i] = -1
			rep.ClassesRemoved++
		}
	}
	m.Constraints = liveCons
	m.ClassIndex = map[string]int{}
	for i, c := range m.Constraints {
		m.ClassIndex[c.Name] = i
		// Compaction renumbers classes; keep the positional index the
		// probe-plan compiler trusts in sync.
		c.Index = i
	}
	for _, op := range m.Operations {
		op.Constraint = remap[op.Constraint]
		if op.Cascaded >= 0 {
			op.Cascaded = remap[op.Cascaded]
		}
	}

	// 2. Hash-cons options (CSE + copy propagation: all references point at
	// one canonical copy).
	canonOpt := map[*lowlevel.Option]*lowlevel.Option{}
	byKey := map[string]*lowlevel.Option{}
	var liveOpts []*lowlevel.Option
	internOption := func(o *lowlevel.Option) *lowlevel.Option {
		if c, ok := canonOpt[o]; ok {
			return c
		}
		k := optionKey(o)
		if c, ok := byKey[k]; ok {
			// Provenance: CSE keeps the canonical copy's source; if the
			// canonical copy predates provenance (e.g. a pass-created
			// option), it inherits the merged option's source.
			if c.Src == "" {
				c.Src = o.Src
			}
			canonOpt[o] = c
			return c
		}
		byKey[k] = o
		canonOpt[o] = o
		o.ID = len(liveOpts)
		liveOpts = append(liveOpts, o)
		return o
	}

	// 3. Hash-cons trees over canonical options, rebuilding pools bottom-up
	// from the live constraints (anything unreachable is dead).
	canonTree := map[*lowlevel.Tree]*lowlevel.Tree{}
	treeByKey := map[string]*lowlevel.Tree{}
	var liveTrees []*lowlevel.Tree
	internTree := func(t *lowlevel.Tree) *lowlevel.Tree {
		if c, ok := canonTree[t]; ok {
			return c
		}
		for i, o := range t.Options {
			t.Options[i] = internOption(o)
		}
		k := treeKey(t, canonOpt)
		if c, ok := treeByKey[k]; ok {
			if c.Src == "" {
				c.Src = t.Src
			}
			canonTree[t] = c
			return c
		}
		treeByKey[k] = t
		canonTree[t] = t
		t.ID = len(liveTrees)
		liveTrees = append(liveTrees, t)
		return t
	}

	for _, c := range m.Constraints {
		for i, t := range c.Trees {
			c.Trees[i] = internTree(t)
		}
	}

	rep.OptionsRemoved = len(m.Options) - len(liveOpts)
	rep.TreesRemoved = len(m.Trees) - len(liveTrees)
	m.Options = liveOpts
	m.Trees = liveTrees

	// 4. Recompute sharing counts over the merged pools.
	for _, t := range m.Trees {
		t.SharedBy = 0
	}
	for _, c := range m.Constraints {
		seen := map[*lowlevel.Tree]bool{}
		for _, t := range c.Trees {
			if !seen[t] {
				seen[t] = true
				t.SharedBy++
			}
		}
	}
	return rep
}

// usageSet returns an option's usages as a (time,word)->mask set, the
// common currency for subset tests across scalar and packed forms.
func usageSet(o *lowlevel.Option) map[[2]int32]uint64 {
	s := map[[2]int32]uint64{}
	if o.Masks != nil {
		for _, m := range o.Masks {
			s[[2]int32{m.Time, m.Word}] |= m.Mask
		}
		return s
	}
	for _, u := range o.Usages {
		s[[2]int32{u.Time, u.Res / 64}] |= 1 << uint(u.Res%64)
	}
	return s
}

// subset reports whether a's usages are a subset of b's.
func subset(a, b map[[2]int32]uint64) bool {
	for k, ma := range a {
		if b[k]&ma != ma {
			return false
		}
	}
	return true
}

// PruneDominatedOptions removes, within every tree, any option whose usages
// are identical to or a superset of a higher-priority option's usages: the
// higher-priority option is always selected whenever the dominated one
// could be (§5; the duplicated PA7100 memory-operation option, Table 8).
func PruneDominatedOptions(m *lowlevel.MDES) Report {
	rep := Report{Pass: PassPruneDominated}
	for _, t := range m.Trees {
		sets := make([]map[[2]int32]uint64, len(t.Options))
		for i, o := range t.Options {
			sets[i] = usageSet(o)
		}
		var kept []*lowlevel.Option
		var keptSets []map[[2]int32]uint64
		for i, o := range t.Options {
			dominated := false
			for j := range kept {
				if subset(keptSets[j], sets[i]) {
					dominated = true
					break
				}
			}
			if dominated {
				rep.OptionsPruned++
				continue
			}
			kept = append(kept, o)
			keptSets = append(keptSets, sets[i])
		}
		t.Options = kept
	}
	if rep.OptionsPruned > 0 {
		// Pruning may strand options in the pool; sweep them.
		sweep(m)
	}
	return rep
}

// sweep drops pool options no longer referenced by any tree.
func sweep(m *lowlevel.MDES) {
	live := map[*lowlevel.Option]bool{}
	for _, t := range m.Trees {
		for _, o := range t.Options {
			live[o] = true
		}
	}
	var opts []*lowlevel.Option
	for _, o := range m.Options {
		if live[o] {
			o.ID = len(opts)
			opts = append(opts, o)
		}
	}
	m.Options = opts
}

// PackBitVectors converts every option's scalar usages into per-cycle mask
// words (§6), so all of a cycle's usages are checked (and reserved) with a
// single AND (OR) operation.
func PackBitVectors(m *lowlevel.MDES) Report {
	rep := Report{Pass: PassPackBitVectors}
	for _, o := range m.Options {
		if o.Masks != nil {
			continue
		}
		o.Masks = packUsages(o.Usages)
		rep.OptionsPacked++
	}
	m.Packed = true
	return rep
}

func packUsages(usages []lowlevel.Usage) []lowlevel.CycleMask {
	type slot struct{ time, word int32 }
	masks := map[slot]uint64{}
	var order []slot
	for _, u := range usages {
		s := slot{u.Time, u.Res / 64}
		if _, ok := masks[s]; !ok {
			order = append(order, s)
		}
		masks[s] |= 1 << uint(u.Res%64)
	}
	sort.Slice(order, func(i, j int) bool {
		if order[i].time != order[j].time {
			return order[i].time < order[j].time
		}
		return order[i].word < order[j].word
	})
	out := make([]lowlevel.CycleMask, 0, len(order))
	for _, s := range order {
		out = append(out, lowlevel.CycleMask{Time: s.time, Word: s.word, Mask: masks[s]})
	}
	return out
}

// unpackOption recovers scalar usages from a packed option.
func unpackOption(o *lowlevel.Option) []lowlevel.Usage {
	if o.Masks == nil {
		return o.Usages
	}
	var usages []lowlevel.Usage
	for _, m := range o.Masks {
		mask := m.Mask
		for mask != 0 {
			bit := mask & -mask
			res := m.Word*64 + int32(trailingZeros(mask))
			usages = append(usages, lowlevel.Usage{Time: m.Time, Res: res})
			mask ^= bit
		}
	}
	sort.Slice(usages, func(i, j int) bool {
		if usages[i].Time != usages[j].Time {
			return usages[i].Time < usages[j].Time
		}
		return usages[i].Res < usages[j].Res
	})
	return usages
}

func trailingZeros(x uint64) int {
	n := 0
	for x&1 == 0 {
		x >>= 1
		n++
	}
	return n
}

// Direction selects the scheduler the usage-time shift targets (§7): a
// forward list scheduler wants each resource's earliest usage at time zero;
// a backward scheduler wants the latest usage there.
type Direction int

const (
	Forward Direction = iota
	Backward
)

func (d Direction) String() string {
	switch d {
	case Forward:
		return "forward"
	case Backward:
		return "backward"
	}
	return "unknown"
}

// ShiftUsageTimes subtracts, for every resource, a constant from all of its
// usage times: the resource's earliest (Forward) or latest (Backward) usage
// time across every option in the MDES. Constant per-resource shifts
// preserve all collision vectors (§7), so schedules are unchanged, while
// usages concentrate at time zero, where the bit-vector representation and
// early conflict detection profit.
func ShiftUsageTimes(m *lowlevel.MDES, dir Direction) Report {
	rep := Report{Pass: PassShiftUsageTimes}
	shift := map[int32]int32{}
	seen := map[int32]bool{}
	for _, o := range m.Options {
		for _, u := range unpackOption(o) {
			if !seen[u.Res] {
				seen[u.Res] = true
				shift[u.Res] = u.Time
				continue
			}
			if dir == Forward && u.Time < shift[u.Res] {
				shift[u.Res] = u.Time
			}
			if dir == Backward && u.Time > shift[u.Res] {
				shift[u.Res] = u.Time
			}
		}
	}
	for res, s := range shift {
		if s != 0 {
			rep.ResourcesShifed++
		}
		_ = res
	}
	for _, o := range m.Options {
		usages := unpackOption(o)
		shifted := make([]lowlevel.Usage, len(usages))
		for i, u := range usages {
			shifted[i] = lowlevel.Usage{Time: u.Time - shift[u.Res], Res: u.Res}
		}
		sort.Slice(shifted, func(i, j int) bool {
			if shifted[i].Time != shifted[j].Time {
				return shifted[i].Time < shifted[j].Time
			}
			return shifted[i].Res < shifted[j].Res
		})
		o.Usages = shifted
		if o.Masks != nil {
			o.Masks = packUsages(shifted)
		}
	}
	return rep
}

// SortUsagesTimeZeroFirst reorders every option's checks so time-zero
// entries come first (§7): after the shift, time zero is where conflicts
// concentrate, so a forward scheduler detects conflicts with the fewest
// probes.
func SortUsagesTimeZeroFirst(m *lowlevel.MDES) Report {
	rep := Report{Pass: PassSortZeroFirst}
	key := func(t int32) int32 {
		if t == 0 {
			return -1 << 30
		}
		return t
	}
	for _, o := range m.Options {
		if o.Masks != nil {
			sort.SliceStable(o.Masks, func(i, j int) bool {
				return key(o.Masks[i].Time) < key(o.Masks[j].Time)
			})
		}
		sort.SliceStable(o.Usages, func(i, j int) bool {
			return key(o.Usages[i].Time) < key(o.Usages[j].Time)
		})
	}
	return rep
}

// SortORTrees reorders the OR-trees inside each AND/OR constraint so the
// tree most likely to expose a resource conflict is checked first (§8):
// by earliest usage time, then fewest options, then most shared (heavily
// used resources), then original order. No-op for FormOR.
func SortORTrees(m *lowlevel.MDES) Report {
	rep := Report{Pass: PassSortORTrees}
	if m.Form != lowlevel.FormAndOr {
		return rep
	}
	for _, c := range m.Constraints {
		orig := map[*lowlevel.Tree]int{}
		for i, t := range c.Trees {
			orig[t] = i
		}
		before := append([]*lowlevel.Tree(nil), c.Trees...)
		sort.SliceStable(c.Trees, func(i, j int) bool {
			a, b := c.Trees[i], c.Trees[j]
			ae, be := a.EarliestTime(), b.EarliestTime()
			if ae != be {
				return ae < be
			}
			if len(a.Options) != len(b.Options) {
				return len(a.Options) < len(b.Options)
			}
			if a.SharedBy != b.SharedBy {
				return a.SharedBy > b.SharedBy
			}
			return orig[a] < orig[b]
		})
		for i := range c.Trees {
			if c.Trees[i] != before[i] {
				rep.TreesReordered++
				break
			}
		}
	}
	return rep
}

// HoistCommonUsages moves resource usages that are common to every option
// of an OR-tree into a one-option OR-tree of the same constraint (§8),
// detecting conflicts on heavily-used common resources before the option
// scan. Application heuristics follow the paper:
//
//  1. hoist if the constraint already has a one-option OR-tree with a usage
//     at the same usage time (with bit-vectors this cannot add a check);
//  2. otherwise hoist only if the common usage is the only usage at its
//     time in each option (each option loses one check; one is added).
//
// Trees shared between constraints are cloned before modification so other
// constraints are unaffected; run EliminateRedundant afterwards to re-merge
// any now-identical trees. No-op for FormOR.
func HoistCommonUsages(m *lowlevel.MDES) Report {
	rep := Report{Pass: PassHoistCommonUsages}
	if m.Form != lowlevel.FormAndOr {
		return rep
	}
	for _, c := range m.Constraints {
		for ti := 0; ti < len(c.Trees); ti++ {
			t := c.Trees[ti]
			if len(t.Options) < 2 {
				continue
			}
			common := commonUsages(t)
			for _, u := range common {
				target := findOneOptionTreeAtTime(c, u.Time)
				applies := target != nil || onlyUsageAtItsTime(t, u)
				if !applies {
					continue
				}
				// Clone shared structures before mutating.
				if t.SharedBy > 1 {
					t = cloneTree(m, t)
					c.Trees[ti] = t
				}
				if target != nil && target.SharedBy > 1 {
					clone := cloneTree(m, target)
					replaceTree(c, target, clone)
					target = clone
				}
				if target == nil {
					opt := &lowlevel.Option{ID: len(m.Options), Src: t.Src + "!hoist"}
					m.Options = append(m.Options, opt)
					target = &lowlevel.Tree{
						ID:       len(m.Trees),
						Name:     fmt.Sprintf("%s!hoist", t.Name),
						Src:      t.Src + "!hoist",
						Options:  []*lowlevel.Option{opt},
						SharedBy: 1,
					}
					m.Trees = append(m.Trees, target)
					c.Trees = append(c.Trees, target)
				}
				// Probe the target before the tree it hoists from, as the
				// unhoisted tree probed the usage with its options: a
				// greedy probe commits to the first free option of each
				// tree in turn, and where another of the tree's usages can
				// collide with the hoisted one (a modulo fold), probing the
				// tree first commits to an option the unhoisted
				// description would have skipped. A later target (a new
				// one is last) moves to t's index.
				if k := slices.Index(c.Trees, target); k > ti {
					copy(c.Trees[ti+1:k+1], c.Trees[ti:k])
					c.Trees[ti] = target
					ti++
				}
				// Options may be pooled (shared) after CSE even when their
				// trees are not, so modified options are always replaced
				// with fresh copies; the final EliminateRedundant re-merges
				// any that became identical.
				removeUsageFromTree(m, t, u)
				target.Options[0] = addUsageToOption(m, target.Options[0], u)
				rep.UsagesHoisted++
			}
		}
	}
	if rep.UsagesHoisted > 0 {
		EliminateRedundant(m)
	}
	return rep
}

// commonUsages returns the usages present in every option of the tree.
func commonUsages(t *lowlevel.Tree) []lowlevel.Usage {
	counts := map[lowlevel.Usage]int{}
	for _, o := range t.Options {
		for _, u := range unpackOption(o) {
			counts[u]++
		}
	}
	var out []lowlevel.Usage
	for u, n := range counts {
		if n == len(t.Options) {
			out = append(out, u)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Time != out[j].Time {
			return out[i].Time < out[j].Time
		}
		return out[i].Res < out[j].Res
	})
	return out
}

// findOneOptionTreeAtTime returns a one-option tree of the constraint with
// a usage at time t, or nil.
func findOneOptionTreeAtTime(c *lowlevel.Constraint, t int32) *lowlevel.Tree {
	for _, tree := range c.Trees {
		if len(tree.Options) != 1 {
			continue
		}
		for _, u := range unpackOption(tree.Options[0]) {
			if u.Time == t {
				return tree
			}
		}
	}
	return nil
}

// onlyUsageAtItsTime reports whether u is the only usage at its time in
// every option of t.
func onlyUsageAtItsTime(t *lowlevel.Tree, u lowlevel.Usage) bool {
	for _, o := range t.Options {
		n := 0
		for _, x := range unpackOption(o) {
			if x.Time == u.Time {
				n++
			}
		}
		if n != 1 {
			return false
		}
	}
	return true
}

// cloneTree deep-copies a tree (and its options) into the pools and adjusts
// sharing counts.
func cloneTree(m *lowlevel.MDES, t *lowlevel.Tree) *lowlevel.Tree {
	nt := &lowlevel.Tree{ID: len(m.Trees), Name: t.Name, Src: t.Src, SharedBy: 1}
	t.SharedBy--
	for _, o := range t.Options {
		no := &lowlevel.Option{
			ID:     len(m.Options),
			Src:    o.Src,
			Usages: append([]lowlevel.Usage(nil), o.Usages...),
		}
		if o.Masks != nil {
			no.Masks = append([]lowlevel.CycleMask(nil), o.Masks...)
		}
		m.Options = append(m.Options, no)
		nt.Options = append(nt.Options, no)
	}
	m.Trees = append(m.Trees, nt)
	return nt
}

func replaceTree(c *lowlevel.Constraint, old, nu *lowlevel.Tree) {
	for i, t := range c.Trees {
		if t == old {
			c.Trees[i] = nu
		}
	}
}

// removeUsageFromTree replaces every option of t with a fresh copy lacking
// usage u, keeping scalar and packed forms consistent. Fresh copies are
// required because pooled options may be shared with other trees.
func removeUsageFromTree(m *lowlevel.MDES, t *lowlevel.Tree, u lowlevel.Usage) {
	for i, o := range t.Options {
		var usages []lowlevel.Usage
		for _, x := range unpackOption(o) {
			if x != u {
				usages = append(usages, x)
			}
		}
		t.Options[i] = newOption(m, usages, o.Masks != nil, o.Src)
	}
}

// addUsageToOption returns a fresh pooled option equal to o plus usage u.
func addUsageToOption(m *lowlevel.MDES, o *lowlevel.Option, u lowlevel.Usage) *lowlevel.Option {
	usages := append(unpackOption(o), u)
	sort.Slice(usages, func(i, j int) bool {
		if usages[i].Time != usages[j].Time {
			return usages[i].Time < usages[j].Time
		}
		return usages[i].Res < usages[j].Res
	})
	return newOption(m, usages, o.Masks != nil || m.Packed, o.Src)
}

// newOption pools a fresh option with the given usages and provenance.
func newOption(m *lowlevel.MDES, usages []lowlevel.Usage, packed bool, src string) *lowlevel.Option {
	o := &lowlevel.Option{ID: len(m.Options), Usages: usages, Src: src}
	if packed {
		o.Masks = packUsages(usages)
	}
	m.Options = append(m.Options, o)
	return o
}
