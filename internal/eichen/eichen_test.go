package eichen

import (
	"math/rand"
	"testing"

	"mdes/internal/hmdes"
	"mdes/internal/lowlevel"
	"mdes/internal/machines"
	"mdes/internal/opt"
	"mdes/internal/probeplan"
	"mdes/internal/stats"
)

func compileOR(t *testing.T, name machines.Name) *lowlevel.MDES {
	t.Helper()
	m, err := machines.Load(name)
	if err != nil {
		t.Fatal(err)
	}
	return lowlevel.Compile(m, lowlevel.FormOR)
}

// The Pentium's PairCtl resources shadow the Issue slots (identical usage
// times in every option); E&D resource merging must eliminate them.
func TestPentiumPairCtlMerged(t *testing.T) {
	m := compileOR(t, machines.Pentium)
	before := m.Size().Total()
	rep := Reduce(m)
	if rep.ResourcesMerged < 2 {
		t.Fatalf("ResourcesMerged = %d, want >= 2 (PairCtl[0], PairCtl[1])", rep.ResourcesMerged)
	}
	if m.Size().Total() >= before {
		t.Fatalf("reduction did not shrink: %d -> %d", before, m.Size().Total())
	}
	// No option may still use a PairCtl resource.
	pair0, pair1 := int32(-1), int32(-1)
	for i, n := range m.ResourceNames {
		if n == "PairCtl[0]" {
			pair0 = int32(i)
		}
		if n == "PairCtl[1]" {
			pair1 = int32(i)
		}
	}
	for _, o := range m.Options {
		for _, u := range o.Usages {
			if u.Res == pair0 || u.Res == pair1 {
				t.Fatalf("PairCtl usage survives: %v", o.Usages)
			}
		}
	}
}

func TestReduceNoOpForAndOrAndPacked(t *testing.T) {
	m, err := machines.Load(machines.Pentium)
	if err != nil {
		t.Fatal(err)
	}
	ao := lowlevel.Compile(m, lowlevel.FormAndOr)
	if rep := Reduce(ao); rep.ResourcesMerged != 0 || rep.UsagesRemoved != 0 {
		t.Fatalf("AND/OR reduced: %+v", rep)
	}
	or := lowlevel.Compile(m, lowlevel.FormOR)
	opt.PackBitVectors(or)
	if rep := Reduce(or); rep.ResourcesMerged != 0 || rep.UsagesRemoved != 0 {
		t.Fatalf("packed reduced: %+v", rep)
	}
}

// MinimizeUsages must drop a usage of a resource that appears nowhere else
// and is shadowed within its own option.
func TestMinimizeDropsPrivateShadowedUsage(t *testing.T) {
	src := `machine E {
	  resource A;
	  resource B;
	  resource C[2];
	  // B is used only here, always alongside A at the same time: B's
	  // usage can never forbid a latency A's does not already forbid.
	  class one { use A @ 0, B @ 0; }
	  class two { one_of C[0..1] @ 0; }
	  operation X class one;
	  operation Y class two;
	}`
	mach, err := hmdes.Load("e", src)
	if err != nil {
		t.Fatal(err)
	}
	m := lowlevel.Compile(mach, lowlevel.FormOR)
	rep := Reduce(m)
	if rep.ResourcesMerged+rep.UsagesRemoved == 0 {
		t.Fatalf("nothing reduced: %+v", rep)
	}
	one := m.Constraints[m.ClassIndex["one"]]
	if got := len(one.Trees[0].Options[0].Usages); got != 1 {
		t.Fatalf("option still has %d usages", got)
	}
}

func TestMinimizeKeepsLoneUsages(t *testing.T) {
	src := `machine E {
	  resource A;
	  class one { use A @ 0; }
	  operation X class one;
	}`
	mach, err := hmdes.Load("e", src)
	if err != nil {
		t.Fatal(err)
	}
	m := lowlevel.Compile(mach, lowlevel.FormOR)
	Reduce(m)
	if len(m.Constraints[0].Trees[0].Options[0].Usages) != 1 {
		t.Fatalf("lone self-colliding usage removed")
	}
}

// forbidAll snapshots every ordered pair's forbidden-latency set.
func forbidAll(m *lowlevel.MDES) map[[2]int]map[int32]bool {
	out := map[[2]int]map[int32]bool{}
	for i, a := range m.Options {
		for j, b := range m.Options {
			out[[2]int{i, j}] = forbidden(a.Usages, b.Usages)
		}
	}
	return out
}

// Property: Reduce preserves every pairwise collision vector on every
// built-in machine's OR-form description.
func TestReducePreservesCollisionVectors(t *testing.T) {
	for _, name := range []machines.Name{machines.PA7100, machines.Pentium, machines.SuperSPARC} {
		m := compileOR(t, name)
		opt.EliminateRedundant(m) // smaller pool, same semantics
		before := forbidAll(m)
		Reduce(m)
		after := forbidAll(m)
		for pair, f1 := range before {
			f2 := after[pair]
			if len(f1) != len(f2) {
				t.Fatalf("%s: pair %v vector changed: %v -> %v", name, pair, f1, f2)
			}
			for lat := range f1 {
				if !f2[lat] {
					t.Fatalf("%s: pair %v lost forbidden latency %d", name, pair, lat)
				}
			}
		}
	}
}

// Property: greedy schedules are unchanged by the reduction.
func TestReducePreservesSchedules(t *testing.T) {
	for _, name := range []machines.Name{machines.Pentium, machines.SuperSPARC} {
		base := compileOR(t, name)
		reduced := compileOR(t, name)
		Reduce(reduced)

		r := rand.New(rand.NewSource(31))
		type item struct{ class, arrival int }
		var items []item
		for i := 0; i < 300; i++ {
			items = append(items, item{class: r.Intn(len(base.Constraints)), arrival: i / 2})
		}
		run := func(m *lowlevel.MDES) []int {
			plan, err := probeplan.Compile(m)
			if err != nil {
				t.Fatal(err)
			}
			ru := probeplan.NewProber(plan)
			var c stats.Counters
			issues := make([]int, len(items))
			for i, it := range items {
				cy := it.arrival
				for {
					if sel, ok := ru.Check(m.Constraints[it.class], cy, &c); ok {
						ru.Reserve(sel)
						issues[i] = cy
						break
					}
					cy++
				}
			}
			return issues
		}
		a, b := run(base), run(reduced)
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("%s: item %d issued at %d, reduced %d", name, i, a[i], b[i])
			}
		}
	}
}

// The reduction lowers checks per option (its purpose) on the Pentium.
func TestReduceLowersChecksPerOption(t *testing.T) {
	m := compileOR(t, machines.Pentium)
	var beforeChecks int
	for _, o := range m.Options {
		beforeChecks += o.NumChecks()
	}
	Reduce(m)
	var afterChecks int
	for _, o := range m.Options {
		afterChecks += o.NumChecks()
	}
	if afterChecks >= beforeChecks {
		t.Fatalf("checks not reduced: %d -> %d", beforeChecks, afterChecks)
	}
}
