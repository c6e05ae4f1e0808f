package opt

import (
	"math/rand"
	"testing"

	"mdes/internal/hmdes"
	"mdes/internal/lowlevel"
	"mdes/internal/machines"
	"mdes/internal/stats"
)

// Factorization must recover AND/OR structure from every built-in
// machine's pre-expanded OR form, shrinking it to (nearly) the authored
// AND/OR size.
func TestFactorRecoversBuiltinStructure(t *testing.T) {
	for _, name := range machines.AllExtended {
		mach := machines.MustLoad(name)
		or := lowlevel.Compile(mach, lowlevel.FormOR)
		EliminateRedundant(or)
		PruneDominatedOptions(or)
		orSize := or.Size().Total()

		rep := FactorORTrees(or)
		if err := or.Validate(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		factoredSize := or.Size().Total()

		authored := lowlevel.Compile(mach, lowlevel.FormAndOr)
		Apply(authored, LevelRedundancy, Forward)
		authoredSize := authored.Size().Total()

		if name == machines.SuperSPARC || name == machines.K5 || name == machines.P6 {
			if rep.TreesFactored == 0 {
				t.Errorf("%s: nothing factored", name)
			}
			if factoredSize >= orSize {
				t.Errorf("%s: factoring did not shrink: %d -> %d", name, orSize, factoredSize)
			}
			// Within 2x of the authored AND/OR size.
			if factoredSize > 2*authoredSize {
				t.Errorf("%s: factored %d bytes vs authored AND/OR %d", name, factoredSize, authoredSize)
			}
		}
		t.Logf("%s: OR %dB -> factored %dB (authored AND/OR %dB, %d trees factored)",
			name, orSize, factoredSize, authoredSize, rep.TreesFactored)
	}
}

// Factored descriptions must schedule identically to the flat OR form.
func TestFactorPreservesSchedules(t *testing.T) {
	for _, name := range []machines.Name{machines.SuperSPARC, machines.K5} {
		mach := machines.MustLoad(name)
		flat := lowlevel.Compile(mach, lowlevel.FormOR)
		factored := lowlevel.Compile(mach, lowlevel.FormOR)
		EliminateRedundant(factored)
		FactorORTrees(factored)

		r := rand.New(rand.NewSource(41))
		type item struct{ class, arrival int }
		var items []item
		for i := 0; i < 400; i++ {
			items = append(items, item{class: r.Intn(len(flat.Constraints)), arrival: i / 3})
		}
		run := func(m *lowlevel.MDES) []int {
			ru := newProber(m)
			var c stats.Counters
			issues := make([]int, len(items))
			for i, it := range items {
				cy := it.arrival
				for {
					// Class indices may have been remapped by dead-code
					// removal; address constraints by name.
					name := flat.Constraints[it.class].Name
					con := m.Constraints[m.ClassIndex[name]]
					if sel, ok := ru.Check(con, cy, &c); ok {
						ru.Reserve(sel)
						issues[i] = cy
						break
					}
					cy++
				}
			}
			return issues
		}
		a, b := run(flat), run(factored)
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("%s: item %d at %d vs %d", name, i, a[i], b[i])
			}
		}
	}
}

// A hand-built cross product with shared (common) usages factors exactly.
func TestFactorHandBuilt(t *testing.T) {
	src := `machine F {
	  resource A[2];
	  resource B[3];
	  resource C;
	  class prod {
	    one_of A[0..1] @ 0;
	    one_of B[0..2] @ 1;
	    use C @ 0;
	  }
	  operation X class prod;
	}`
	mach, err := hmdes.Load("f", src)
	if err != nil {
		t.Fatal(err)
	}
	m := lowlevel.Compile(mach, lowlevel.FormOR)
	if got := len(m.Constraints[0].Trees[0].Options); got != 6 {
		t.Fatalf("expanded options = %d", got)
	}
	rep := FactorORTrees(m)
	if rep.TreesFactored != 1 {
		t.Fatalf("TreesFactored = %d", rep.TreesFactored)
	}
	c := m.Constraints[0]
	if len(c.Trees) < 2 {
		t.Fatalf("trees after factoring = %d", len(c.Trees))
	}
	if c.OptionCount() != 6 {
		t.Fatalf("represented options changed: %d", c.OptionCount())
	}
	total := 0
	for _, tr := range c.Trees {
		total += len(tr.Options)
	}
	if total > 6 {
		t.Fatalf("stored options = %d, want <= 2+3+1", total)
	}
	if m.Form != lowlevel.FormAndOr {
		t.Fatalf("form not upgraded")
	}
}

// Non-product trees must be left alone.
func TestFactorLeavesNonProducts(t *testing.T) {
	src := `machine N {
	  resource R[4];
	  resource S[2];
	  class odd {
	    tree {
	      option { R[0] @ 0; S[0] @ 0; }
	      option { R[1] @ 0; S[1] @ 0; }
	      option { R[2] @ 0; S[0] @ 0; }
	      option { R[3] @ 0; S[0] @ 0; }
	    }
	  }
	  operation X class odd;
	}`
	mach, err := hmdes.Load("n", src)
	if err != nil {
		t.Fatal(err)
	}
	m := lowlevel.Compile(mach, lowlevel.FormOR)
	rep := FactorORTrees(m)
	if rep.TreesFactored != 0 {
		t.Fatalf("non-product factored: %+v", rep)
	}
	if len(m.Constraints[0].Trees) != 1 {
		t.Fatalf("trees = %d", len(m.Constraints[0].Trees))
	}
}

func TestFactorSkipsPacked(t *testing.T) {
	mach := machines.MustLoad(machines.SuperSPARC)
	m := lowlevel.Compile(mach, lowlevel.FormOR)
	PackBitVectors(m)
	if rep := FactorORTrees(m); rep.TreesFactored != 0 {
		t.Fatalf("packed MDES factored")
	}
}

// Factoring then full optimization matches direct AND/OR compilation's
// scheduling cost.
func TestFactorThenOptimizeChecksMatchAuthored(t *testing.T) {
	mach := machines.MustLoad(machines.K5)
	viaFactor := lowlevel.Compile(mach, lowlevel.FormOR)
	EliminateRedundant(viaFactor)
	FactorORTrees(viaFactor)
	Apply(viaFactor, LevelFull, Forward)

	authored := lowlevel.Compile(mach, lowlevel.FormAndOr)
	Apply(authored, LevelFull, Forward)

	r := rand.New(rand.NewSource(55))
	type item struct{ class, arrival int }
	var items []item
	for i := 0; i < 500; i++ {
		items = append(items, item{class: r.Intn(len(authored.Constraints)), arrival: i / 4})
	}
	run := func(m *lowlevel.MDES) stats.Counters {
		ru := newProber(m)
		var c stats.Counters
		for _, it := range items {
			name := authored.Constraints[it.class].Name
			idx, ok := m.ClassIndex[name]
			if !ok {
				continue
			}
			cy := it.arrival
			for {
				if sel, ok := ru.Check(m.Constraints[idx], cy, &c); ok {
					ru.Reserve(sel)
					break
				}
				cy++
			}
		}
		return c
	}
	cf := run(viaFactor)
	ca := run(authored)
	// The factored path must land within 25% of the authored path's
	// per-attempt cost (exact tree granularity can differ slightly).
	if cf.ChecksPerAttempt() > 1.25*ca.ChecksPerAttempt() {
		t.Fatalf("factored %.2f checks/attempt vs authored %.2f",
			cf.ChecksPerAttempt(), ca.ChecksPerAttempt())
	}
}

// Property: a randomly generated cross-product AND/OR tree, expanded to a
// flat OR-tree, factors back into trees whose re-expansion reproduces the
// original option list exactly (usages and priority order).
func TestQuickFactorRoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(99))
	for trial := 0; trial < 60; trial++ {
		// Build 2-3 factor groups over disjoint resources with random
		// option counts 2-3 and 1-2 usages per option.
		nGroups := 2 + r.Intn(2)
		res := int32(0)
		var groups [][][]lowlevel.Usage // group -> option -> usages
		for g := 0; g < nGroups; g++ {
			nOpts := 2 + r.Intn(2)
			var opts [][]lowlevel.Usage
			for o := 0; o < nOpts; o++ {
				nUse := 1 + r.Intn(2)
				var usages []lowlevel.Usage
				for u := 0; u < nUse; u++ {
					usages = append(usages, lowlevel.Usage{Time: int32(r.Intn(3)), Res: res})
					res++
				}
				opts = append(opts, usages)
			}
			groups = append(groups, opts)
		}
		// Expand with group 0 varying fastest.
		var flat []*lowlevel.Option
		var build func(g int, acc []lowlevel.Usage)
		total := 1
		for _, g := range groups {
			total *= len(g)
		}
		flat = make([]*lowlevel.Option, total)
		var expand func(g, idx, stride int, acc []lowlevel.Usage)
		expand = func(g, idx, stride int, acc []lowlevel.Usage) {
			if g == len(groups) {
				o := &lowlevel.Option{Usages: append([]lowlevel.Usage(nil), acc...)}
				sortUsages(o)
				flat[idx] = o
				return
			}
			for oi, usages := range groups[g] {
				expand(g+1, idx+oi*stride, stride*len(groups[g]), append(acc, usages...))
			}
		}
		expand(0, 0, 1, nil)
		_ = build

		tree := &lowlevel.Tree{Name: "q", Options: flat, SharedBy: 1}
		m := &lowlevel.MDES{
			Form:         lowlevel.FormOR,
			NumResources: int(res),
			Options:      flat,
			Trees:        []*lowlevel.Tree{tree},
			Constraints:  []*lowlevel.Constraint{{Name: "c", Trees: []*lowlevel.Tree{tree}}},
			ClassIndex:   map[string]int{"c": 0},
			Operations:   []*lowlevel.Operation{{Name: "X", Constraint: 0, Cascaded: -1, Latency: 1}},
			OpIndex:      map[string]int{"X": 0},
		}
		rep := FactorORTrees(m)
		if rep.TreesFactored != 1 {
			t.Fatalf("trial %d: TreesFactored = %d", trial, rep.TreesFactored)
		}
		if err := m.Validate(); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		// Re-expand the factored constraint and compare option order.
		re := reExpand(m.Constraints[0])
		if len(re) != total {
			t.Fatalf("trial %d: re-expansion %d options, want %d", trial, len(re), total)
		}
		for i := range re {
			if optionKey(re[i]) != optionKey(flat[i]) {
				t.Fatalf("trial %d: option %d differs:\n%s\nvs\n%s",
					trial, i, optionKey(re[i]), optionKey(flat[i]))
			}
		}
	}
}

func sortUsages(o *lowlevel.Option) {
	sortOpt := o.Usages
	for i := 1; i < len(sortOpt); i++ {
		for j := i; j > 0; j-- {
			a, b := sortOpt[j-1], sortOpt[j]
			if b.Time < a.Time || (b.Time == a.Time && b.Res < a.Res) {
				sortOpt[j-1], sortOpt[j] = b, a
			} else {
				break
			}
		}
	}
}

// reExpand enumerates a factored constraint's cross product with the first
// tree varying fastest (matching restable.Expand's order).
func reExpand(c *lowlevel.Constraint) []*lowlevel.Option {
	combos := []*lowlevel.Option{{}}
	for ti := len(c.Trees) - 1; ti >= 0; ti-- {
		tree := c.Trees[ti]
		var next []*lowlevel.Option
		for _, comb := range combos {
			for _, o := range tree.Options {
				merged := &lowlevel.Option{Usages: append(append([]lowlevel.Usage(nil), o.Usages...), comb.Usages...)}
				sortUsages(merged)
				next = append(next, merged)
			}
		}
		combos = next
	}
	return combos
}
