package opt

// Property tests for the optimization passes, driven by generated random
// machines (internal/mdgen): instead of asserting option counts on known
// machines, these assert the invariants each pass claims to preserve over
// arbitrary pathological table shapes.

import (
	"math/rand"
	"testing"

	"mdes/internal/lowlevel"
	"mdes/internal/mdgen"
	"mdes/internal/probeplan"
	"mdes/internal/stats"
)

// compileSeed compiles one generated machine in AND/OR form.
func compileSeed(t *testing.T, seed int64) *lowlevel.MDES {
	t.Helper()
	mach, err := mdgen.Generate(seed).Machine()
	if err != nil {
		t.Fatalf("seed %d: %v", seed, err)
	}
	return lowlevel.Compile(mach, lowlevel.FormAndOr)
}

// randomBusy reserves a random scatter of slots, simulating an arbitrary
// point in a schedule.
func randomBusy(r *rand.Rand, m *lowlevel.MDES, ck *probeplan.Prober, window int) {
	var c stats.Counters
	for tries := 0; tries < 12; tries++ {
		opIdx := r.Intn(len(m.Operations))
		issue := r.Intn(window)
		if sel, ok := ck.Check(m.ConstraintFor(opIdx, false), issue, &c); ok {
			ck.Reserve(sel)
		}
	}
}

// Dominated-option pruning may only remove options whose satisfiability is
// implied by a surviving one: under any busy state, every constraint's
// feasibility at every cycle is unchanged, and no tree is ever emptied —
// in particular the last satisfiable option of a tree must survive (on an
// idle machine every constraint stays satisfiable).
func TestPruneDominatedPreservesFeasibility(t *testing.T) {
	for seed := int64(0); seed < 40; seed++ {
		m := compileSeed(t, seed)
		before := treeOptionCounts(m)

		// Record feasibility over random busy states before pruning. The
		// busy states are replayed bit-for-bit after pruning, so the only
		// variable is the option set.
		type probe struct{ op, issue int }
		r := rand.New(rand.NewSource(seed * 31))
		var want []bool
		var probes []probe
		states := make([]int64, 6)
		for i := range states {
			states[i] = r.Int63()
		}
		record := func(m *lowlevel.MDES) []bool {
			var got []bool
			var c stats.Counters
			for _, st := range states {
				ck := newProber(m)
				randomBusy(rand.New(rand.NewSource(st)), m, ck, 6)
				for op := range m.Operations {
					for issue := 0; issue < 8; issue++ {
						_, ok := ck.Check(m.ConstraintFor(op, false), issue, &c)
						got = append(got, ok)
						probes = append(probes, probe{op, issue})
					}
				}
			}
			return got
		}
		want = record(m)

		PruneDominatedOptions(m)

		for _, con := range m.Constraints {
			for _, tr := range con.Trees {
				if len(tr.Options) == 0 {
					t.Fatalf("seed %d: pruning emptied a tree of %q", seed, con.Name)
				}
			}
		}
		probes = probes[:0]
		got := record(m)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("seed %d: pruning changed feasibility of op %d at cycle %d: %v -> %v",
					seed, probes[i].op, probes[i].issue, want[i], got[i])
			}
		}
		if after := treeOptionCounts(m); after > before {
			t.Fatalf("seed %d: pruning grew the description (%d -> %d options)", seed, before, after)
		}
	}
}

func treeOptionCounts(m *lowlevel.MDES) int {
	n := 0
	for _, con := range m.Constraints {
		for _, tr := range con.Trees {
			n += len(tr.Options)
		}
	}
	return n
}

// Usage-time shifting must be a per-resource constant translation: for
// every resource, all of its usage times move by one fixed offset.
// Forward anchors each resource's earliest usage at time zero; Backward
// anchors the latest. Constant per-resource shifts preserve all collision
// vectors (§7), which the differential harness checks; here the stronger
// structural form is asserted directly.
func TestShiftUsageTimesIsPerResourceConstant(t *testing.T) {
	for _, dir := range []Direction{Forward, Backward} {
		for seed := int64(0); seed < 40; seed++ {
			m := compileSeed(t, seed)
			before := map[int32][]int32{}
			for _, o := range m.Options {
				for _, u := range unpackOption(o) {
					before[u.Res] = append(before[u.Res], u.Time)
				}
			}
			ShiftUsageTimes(m, dir)
			after := map[int32][]int32{}
			for _, o := range m.Options {
				for _, u := range unpackOption(o) {
					after[u.Res] = append(after[u.Res], u.Time)
				}
			}
			for res, times := range before {
				if len(after[res]) != len(times) {
					t.Fatalf("seed %d %v: resource %d lost usages (%d -> %d)",
						seed, dir, res, len(times), len(after[res]))
				}
				delta := after[res][0] - times[0]
				var extreme int32
				for i := range times {
					if got := after[res][i] - times[i]; got != delta {
						t.Fatalf("seed %d %v: resource %d shifted non-uniformly (%d vs %d)",
							seed, dir, res, got, delta)
					}
					if i == 0 || (dir == Forward && after[res][i] < extreme) ||
						(dir == Backward && after[res][i] > extreme) {
						extreme = after[res][i]
					}
				}
				if extreme != 0 {
					t.Fatalf("seed %d %v: resource %d extreme usage time is %d, want 0",
						seed, dir, res, extreme)
				}
			}
		}
	}
}

// Bit-vector packing must be lossless: unpacking a packed option recovers
// exactly the scalar usages, for random usage sets crossing word
// boundaries (resources above 64 exercise multi-word masks).
func TestPackUsagesRoundTrips(t *testing.T) {
	r := rand.New(rand.NewSource(99))
	for trial := 0; trial < 500; trial++ {
		n := 1 + r.Intn(12)
		seen := map[lowlevel.Usage]bool{}
		var usages []lowlevel.Usage
		for i := 0; i < n; i++ {
			u := lowlevel.Usage{
				Time: int32(r.Intn(12) - 3),
				Res:  int32(r.Intn(150)), // spans word 0, 1, and 2
			}
			if seen[u] {
				continue
			}
			seen[u] = true
			usages = append(usages, u)
		}
		o := &lowlevel.Option{Usages: append([]lowlevel.Usage(nil), usages...)}
		sortUsages(o) // the shared test helper from factor_test.go
		usages = append(usages[:0], o.Usages...)
		o.Masks = packUsages(o.Usages)
		got := unpackOption(o)
		if len(got) != len(usages) {
			t.Fatalf("trial %d: %d usages in, %d out", trial, len(usages), len(got))
		}
		for i := range usages {
			if got[i] != usages[i] {
				t.Fatalf("trial %d: usage %d: packed %v round-tripped to %v", trial, i, usages[i], got[i])
			}
		}
	}
}
