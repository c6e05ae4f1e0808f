package resctx

import (
	"cmp"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"mdes/internal/hmdes"
	"mdes/internal/lowlevel"
	"mdes/internal/machines"
	"mdes/internal/mdgen"
	"mdes/internal/obs"
	"mdes/internal/opt"
	"mdes/internal/probeplan"
	"mdes/internal/stats"
)

// placeCase is one description the Place property runs on.
type placeCase struct {
	name string
	m    *lowlevel.MDES
}

// placeCases returns the four paper machines and the first 50 generated
// machines of the differential sweep (seeds from 1996), each in both
// forms, unoptimized and fully optimized.
func placeCases(t *testing.T) []placeCase {
	t.Helper()
	var cases []placeCase
	variants := func(name string, mach *hmdes.Machine) {
		for _, form := range []lowlevel.Form{lowlevel.FormOR, lowlevel.FormAndOr} {
			for _, level := range []opt.Level{opt.LevelNone, opt.LevelFull} {
				m := lowlevel.Compile(mach, form)
				opt.Apply(m, level, opt.Forward)
				cases = append(cases, placeCase{fmt.Sprintf("%s/%v/%v", name, form, level), m})
			}
		}
	}
	for _, mn := range machines.All {
		mach, err := machines.Load(mn)
		if err != nil {
			t.Fatal(err)
		}
		variants(string(mn), mach)
	}
	for seed := int64(1996); seed < 1996+50; seed++ {
		mach, err := mdgen.Generate(seed).Machine()
		if err != nil {
			t.Fatal(err)
		}
		variants(fmt.Sprintf("gen%d", seed), mach)
	}
	return cases
}

// catch runs f and returns what it panicked with, or nil.
func catch(f func()) (r any) {
	defer func() { r = recover() }()
	f()
	return nil
}

// slotOrder sorts reserved (resource, cycle) slots by cycle, then
// resource.
func slotOrder(a, b [2]int) int {
	if c := cmp.Compare(a[1], b[1]); c != 0 {
		return c
	}
	return cmp.Compare(a[0], b[0])
}

// Property: Context.Place is Context.Probe followed by reserving the
// selection. Over random (constraint, cycle) streams, negative cycles
// included, two contexts on one plan — one placing, one probing and then
// reserving with Prober.Reserve — agree at every step on success, the
// options chosen, the four counters, any double-reservation panic and
// the reserved slots. Independently of the prober, a successful Place
// adds exactly the chosen options' usages (from the description, not the
// plan) to the slots, and a failed one adds nothing. Where the automaton
// can drive the description, the same comparison runs on two cursors
// over monotonic cycles.
func TestPlaceMatchesProbeAndReserve(t *testing.T) {
	for ci, pc := range placeCases(t) {
		m := pc.m
		pool, err := NewPool(m, KindProbePlan)
		if err != nil {
			t.Fatalf("%s: %v", pc.name, err)
		}
		a, b := pool.Get(), pool.Get()
		r := rand.New(rand.NewSource(int64(ci) + 1))
		var ca, cb stats.Counters
		var before, got, want [][2]int
		for step := 0; step < 200; step++ {
			con := m.Constraints[r.Intn(len(m.Constraints))]
			cycle := r.Intn(40) - 6
			before = a.PP.AppendReservedSlots(before[:0])
			var chosen []int
			var okA, okB bool
			var sel probeplan.Selection
			pa := catch(func() { chosen, okA, _ = a.Place(obs.PhaseList, 0, "", con, cycle, &ca) })
			pb := catch(func() {
				if sel, okB, _ = b.Probe(obs.PhaseList, 0, "", con, cycle, &cb); okB {
					b.PP.Reserve(sel)
				}
			})
			where := fmt.Sprintf("%s step %d (%s at %d)", pc.name, step, con.Name, cycle)
			if fmt.Sprint(pa) != fmt.Sprint(pb) {
				t.Fatalf("%s: Place panicked with %v, Probe+Reserve with %v", where, pa, pb)
			}
			if okA != okB || !slices.Equal(chosen, sel.Chosen) {
				t.Fatalf("%s: Place = %v %v, Probe = %v %v", where, okA, chosen, okB, sel.Chosen)
			}
			if ca != cb {
				t.Fatalf("%s: counters %+v after Place, %+v after Probe", where, ca, cb)
			}
			got = a.PP.AppendReservedSlots(got[:0])
			if other := b.PP.AppendReservedSlots(nil); !slices.Equal(got, other) {
				t.Fatalf("%s: Place reserved %v, Probe+Reserve %v", where, got, other)
			}
			if pa != nil {
				continue
			}
			want = append(want[:0], before...)
			if okA {
				for ti, tree := range con.Trees {
					for _, u := range tree.Options[chosen[ti]].ExpandedUsages() {
						want = append(want, [2]int{int(u.Res), cycle + int(u.Time)})
					}
				}
			}
			slices.SortFunc(got, slotOrder)
			slices.SortFunc(want, slotOrder)
			if !slices.Equal(got, want) {
				t.Fatalf("%s: ok=%v left slots %v, want %v", where, okA, got, want)
			}
		}
		if ca.Attempts == ca.Conflicts || ca.Conflicts == 0 {
			t.Fatalf("%s: %+v: the stream never both placed and conflicted", pc.name, ca)
		}
		a.Release()
		b.Release()

		auto, err := NewPool(m, KindAutomaton)
		if err != nil {
			continue // beyond the automaton's reach (§10)
		}
		a, b = auto.Get(), auto.Get()
		ca, cb = stats.Counters{}, stats.Counters{}
		cycle := 0
		for step := 0; step < 200; step++ {
			con := m.Constraints[r.Intn(len(m.Constraints))]
			cycle += r.Intn(2)
			chosen, okA, _ := a.Place(obs.PhaseList, 0, "", con, cycle, &ca)
			sel, okB, _ := b.Probe(obs.PhaseList, 0, "", con, cycle, &cb)
			if okB {
				b.Auto.Reserve(sel)
			}
			if okA != okB || !slices.Equal(chosen, sel.Chosen) || ca != cb {
				t.Fatalf("%s automaton step %d (%s at %d): Place = %v %v %+v, Probe = %v %v %+v",
					pc.name, step, con.Name, cycle, okA, chosen, ca, okB, sel.Chosen, cb)
			}
		}
		a.Release()
		b.Release()
	}
}
