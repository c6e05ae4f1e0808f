package probeplan

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"mdes/internal/hmdes"
	"mdes/internal/lowlevel"
	"mdes/internal/opt"
	"mdes/internal/oracle"
	"mdes/internal/stats"
)

// tinySrc has a real structural hazard (one ALU, two decoders) plus an
// alternative class, so probes exercise both option fallback and conflict.
const tinySrc = `
machine Tiny {
    resource Decoder[2];
    resource ALU;
    resource MEM;

    class alu {
        use ALU @ 0;
        one_of Decoder[0..1] @ 0;
    }
    class mem {
        use MEM @ 0;
        use MEM @ 1;
        use ALU @ 1;
        one_of Decoder[0..1] @ 0;
    }
    operation ADD class alu latency 1;
    operation LD class mem latency 2;
}
`

// negSrc reserves a slot before the issue cycle, exercising the downward
// window growth path.
const negSrc = `
machine Neg {
    resource Decoder;
    resource ALU;

    class alu {
        use Decoder @ -1;
        use ALU @ 0;
    }
    operation ADD class alu latency 1;
}
`

// miniSrc is a load with three independent OR-trees, one of them at a
// negative usage time.
const miniSrc = `
machine Mini {
    resource Decoder[3];
    resource M;
    resource WrPt[2];

    class load {
        use M @ 0;
        one_of WrPt @ 1;
        one_of Decoder[0..2] @ -1;
    }
    operation LD class load latency 1;
}
`

func compile(t *testing.T, src string, form lowlevel.Form) *lowlevel.MDES {
	t.Helper()
	m, err := hmdes.Load("test", src)
	if err != nil {
		t.Fatal(err)
	}
	return lowlevel.Compile(m, form)
}

func mustPlan(t *testing.T, m *lowlevel.MDES) *Plan {
	t.Helper()
	p, err := Compile(m)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// The plan must emit exactly the probe sequence the description carries:
// one word per scalar usage on the unpacked form, one word per cycle mask
// after bit-vector packing — never a re-packed or merged layout of its own.
func TestCompileEmitsDescriptionVerbatim(t *testing.T) {
	ll := compile(t, tinySrc, lowlevel.FormAndOr)
	wantScalar := 0
	for _, con := range ll.Constraints {
		for _, tree := range con.Trees {
			for _, o := range tree.Options {
				wantScalar += len(o.Usages)
			}
		}
	}
	p := mustPlan(t, ll)
	if p.NumWords() != wantScalar {
		t.Fatalf("scalar plan has %d words, description has %d usages", p.NumWords(), wantScalar)
	}

	// Packing merges same-cycle usages within one option, so the shrink is
	// visible on the OR form, whose options carry full cross-product usage
	// lists (the AND/OR form holds one usage per option here).
	ll = compile(t, tinySrc, lowlevel.FormOR)
	scalarOR := mustPlan(t, ll).NumWords()
	opt.PackBitVectors(ll)
	wantPacked := 0
	for _, con := range ll.Constraints {
		for _, tree := range con.Trees {
			for _, o := range tree.Options {
				if o.Masks != nil {
					wantPacked += len(o.Masks)
				} else {
					wantPacked += len(o.Usages)
				}
			}
		}
	}
	p = mustPlan(t, ll)
	if p.NumWords() != wantPacked {
		t.Fatalf("packed plan has %d words, description has %d masks", p.NumWords(), wantPacked)
	}
	if wantPacked >= scalarOR {
		t.Fatalf("packing did not shrink the probe program (%d -> %d)", scalarOR, wantPacked)
	}
	if p.MaxTrees() < 1 {
		t.Fatalf("MaxTrees = %d", p.MaxTrees())
	}
}

// Check must agree with the oracle's naive interpretation of the
// unoptimized tables probe for probe, and reserve exactly the oracle's
// greedy slots, across a mixed sequence of reserves and releases on both
// forms and both packing levels.
func TestCheckMatchesOracle(t *testing.T) {
	mach, err := hmdes.Load("test", tinySrc)
	if err != nil {
		t.Fatal(err)
	}
	for _, form := range []lowlevel.Form{lowlevel.FormOR, lowlevel.FormAndOr} {
		for _, packed := range []bool{false, true} {
			ll := lowlevel.Compile(mach, form)
			if packed {
				opt.PackBitVectors(ll)
			}
			pb := NewProber(mustPlan(t, ll))
			orc := oracle.New(mach)

			var c stats.Counters
			var sels []Selection
			step := func(op, cycle int) {
				sel, ok := pb.Check(ll.ConstraintFor(op, false), cycle, &c)
				if want := orc.Probe(op, cycle); ok != want {
					t.Fatalf("form=%v packed=%v op=%d cycle=%d: prober=%v oracle=%v",
						form, packed, op, cycle, ok, want)
				}
				if ok {
					pb.Reserve(sel)
					orc.Place(op, cycle)
					sels = append(sels, sel)
				}
			}
			sameSlots := func(stage string) {
				got := map[[2]int]bool{}
				for _, s := range pb.AppendReservedSlots(nil) {
					got[s] = true
				}
				want := orc.Slots()
				if len(got) != len(want) {
					t.Fatalf("form=%v packed=%v %s: prober holds %d slots, oracle %d",
						form, packed, stage, len(got), len(want))
				}
				for _, s := range want {
					if !got[[2]int{s.Res, s.Cycle}] {
						t.Fatalf("form=%v packed=%v %s: oracle slot %v missing from the prober",
							form, packed, stage, s)
					}
				}
			}
			// Saturate cycle 0, spill into later cycles, release, re-probe.
			for i := 0; i < 6; i++ {
				step(i%len(ll.Operations), i/2)
			}
			sameSlots("reserved")
			for i := len(sels) - 1; i >= 0; i-- {
				pb.Release(sels[i])
				orc.Unplace()
			}
			sameSlots("released")
			step(0, 0)
			sameSlots("re-reserved")
		}
	}
}

// The greedy walk takes each OR-tree's lowest-numbered free option: the
// first ADD gets Decoder[0], and an LD sharing its cycle falls back to
// Decoder[1].
func TestGreedyPicksLowestNumbered(t *testing.T) {
	ll := compile(t, tinySrc, lowlevel.FormAndOr)
	pb := NewProber(mustPlan(t, ll))
	var c stats.Counters
	decoderChoice := func(sel Selection) int {
		for ti, tree := range sel.Constraint.Trees {
			if len(tree.Options) == 2 {
				return sel.Chosen[ti]
			}
		}
		t.Fatalf("constraint %s has no two-option decoder tree", sel.Constraint.Name)
		return -1
	}
	add, ok := pb.Check(ll.ConstraintFor(ll.OpIndex["ADD"], false), 0, &c)
	if !ok {
		t.Fatal("ADD failed on an empty window")
	}
	pb.Reserve(add)
	if got := decoderChoice(add); got != 0 {
		t.Fatalf("ADD chose decoder option %d, want 0", got)
	}
	ld, ok := pb.Check(ll.ConstraintFor(ll.OpIndex["LD"], false), 0, &c)
	if !ok {
		t.Fatal("LD failed beside ADD")
	}
	if got := decoderChoice(ld); got != 1 {
		t.Fatalf("LD chose decoder option %d, want the fallback 1", got)
	}
}

// A check counts one option per option tried and one resource check per
// probe word, and a failed check stops at the first OR-tree with no free
// option.
func TestCountsShortCircuit(t *testing.T) {
	ll := compile(t, miniSrc, lowlevel.FormAndOr)
	pb := NewProber(mustPlan(t, ll))
	con := ll.Constraints[0]
	var c stats.Counters
	sel, ok := pb.Check(con, 0, &c)
	if !ok {
		t.Fatal("empty window check failed")
	}
	// First option of each of the three trees is free: 3 options, 3 checks.
	if c != (stats.Counters{Attempts: 1, OptionsChecked: 3, ResourceChecks: 3}) {
		t.Fatalf("successful attempt cost %+v", c)
	}
	pb.Reserve(sel)
	before := c
	if _, ok := pb.Check(con, 0, &c); ok {
		t.Fatal("second load at the same cycle did not conflict on M")
	}
	// The M tree has one single-usage option: the failed check costs
	// exactly one option and one resource check.
	if c.OptionsChecked-before.OptionsChecked != 1 || c.ResourceChecks-before.ResourceChecks != 1 || c.Conflicts != 1 {
		t.Fatalf("failed attempt cost: %+v -> %+v", before, c)
	}
}

// Packed options probe one word per cycle mask, reserve every bit of
// each mask, and release them all.
func TestPackedOptionChecks(t *testing.T) {
	ll := compile(t, tinySrc, lowlevel.FormOR)
	opt.PackBitVectors(ll)
	pb := NewProber(mustPlan(t, ll))
	con := ll.ConstraintFor(ll.OpIndex["LD"], false)
	first := con.Trees[0].Options[0]
	if first.Masks == nil {
		t.Fatal("LD's first option was not packed")
	}
	var c stats.Counters
	sel, ok := pb.Check(con, 0, &c)
	if !ok || sel.Chosen[0] != 0 {
		t.Fatalf("packed LD on an empty window: ok=%v sel=%v", ok, sel.Chosen)
	}
	if c.OptionsChecked != 1 || c.ResourceChecks != int64(len(first.Masks)) {
		t.Fatalf("packed checks = %+v, want 1 option and %d words", c, len(first.Masks))
	}
	pb.Reserve(sel)
	for _, u := range first.ExpandedUsages() {
		if !pb.Busy(int(u.Res), int(u.Time)) {
			t.Fatalf("packed reserve missed r%d@%d", u.Res, u.Time)
		}
	}
	if got := len(pb.AppendReservedSlots(nil)); got != len(first.ExpandedUsages()) {
		t.Fatalf("packed reserve holds %d slots, option has %d usages", got, len(first.ExpandedUsages()))
	}
	// LD holds MEM at 0 and 1, so it conflicts until cycle 2.
	if _, ok := pb.Check(con, 1, &c); ok {
		t.Fatal("packed LD overlapped itself")
	}
	if _, ok := pb.Check(con, 2, &c); !ok {
		t.Fatal("packed LD two cycles later conflicted")
	}
	pb.Release(sel)
	if slots := pb.AppendReservedSlots(nil); len(slots) != 0 {
		t.Fatalf("release left slots: %v", slots)
	}
}

// Blocked — the one conflict attribution — names the first
// unsatisfiable tree's position and the blocking slot of its preferred
// option, read from the stash of the probe that just failed, a Check or
// a Place alike.
func TestExplainConflictAttribution(t *testing.T) {
	ll := compile(t, miniSrc, lowlevel.FormAndOr)
	pb := NewProber(mustPlan(t, ll))
	con := ll.Constraints[0]
	var c stats.Counters
	if _, ok, _ := pb.Place(con, 0, &c); !ok {
		t.Fatal("empty window placement failed")
	}

	mRes := -1
	for i, name := range ll.ResourceNames {
		if name == "M" {
			mRes = i
		}
	}
	for _, place := range []bool{false, true} {
		var ok bool
		if place {
			_, ok, _ = pb.Place(con, 0, &c)
		} else {
			_, ok = pb.Check(con, 0, &c)
		}
		if ok {
			t.Fatalf("place=%v: second load at the same cycle did not conflict", place)
		}
		if tree, res, time := pb.Blocked(); tree != 0 || res != mRes || time != 0 {
			t.Fatalf("place=%v: Blocked = (%d, %d, %d), want tree 0, res M (%d), time 0",
				place, tree, res, time, mRes)
		}
	}
}

// Property: for any random issue sequence, OR-form and AND/OR-form checks
// of the same class agree on feasibility, and when feasible they reserve
// exactly the same slots (the paper's "exact same schedule" guarantee).
func TestQuickFormsEquivalent(t *testing.T) {
	orM := compile(t, miniSrc, lowlevel.FormOR)
	aoM := compile(t, miniSrc, lowlevel.FormAndOr)
	orPlan, aoPlan := mustPlan(t, orM), mustPlan(t, aoM)

	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		orP, aoP := NewProber(orPlan), NewProber(aoPlan)
		var c1, c2 stats.Counters
		for i := 0; i < 12; i++ {
			issue := r.Intn(6) - 2
			s1, ok1 := orP.Check(orM.Constraints[0], issue, &c1)
			s2, ok2 := aoP.Check(aoM.Constraints[0], issue, &c2)
			if ok1 != ok2 {
				return false
			}
			if !ok1 {
				continue
			}
			orP.Reserve(s1)
			aoP.Reserve(s2)
			a := map[[2]int]bool{}
			for _, s := range orP.AppendReservedSlots(nil) {
				a[s] = true
			}
			b := aoP.AppendReservedSlots(nil)
			if len(a) != len(b) {
				return false
			}
			for _, s := range b {
				if !a[s] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestNegativeCycleGrowth(t *testing.T) {
	ll := compile(t, negSrc, lowlevel.FormAndOr)
	p := mustPlan(t, ll)
	pb := NewProber(p)
	con := ll.Constraints[0]

	var c stats.Counters
	sel, ok := pb.Check(con, 0, &c)
	if !ok {
		t.Fatal("probe at 0 failed on empty window")
	}
	pb.Reserve(sel)
	// Decoder (res 0) is used at -1, ALU (res 1) at 0.
	if !pb.Busy(0, -1) || !pb.Busy(1, 0) {
		t.Fatalf("expected Decoder@-1 and ALU@0 busy")
	}
	// Issue far below the window: another downward growth.
	sel2, ok := pb.Check(con, -40, &c)
	if !ok {
		t.Fatal("probe at -40 failed")
	}
	pb.Reserve(sel2)
	if !pb.Busy(0, -41) || !pb.Busy(1, -40) {
		t.Fatalf("expected reservations at -41/-40 after growth")
	}
	if !pb.Busy(0, -1) || !pb.Busy(1, 0) {
		t.Fatalf("downward growth corrupted existing reservations")
	}
	if _, ok := pb.Check(con, -40, &c); ok {
		t.Fatalf("double issue at -40 accepted")
	}
}

// Reservations above and below the first one grow the window in both
// directions; every slot keeps its absolute cycle, a second reservation
// of a held slot is refused, and Reset clears them all.
func TestRowGrowthBothDirections(t *testing.T) {
	ll := compile(t, negSrc, lowlevel.FormAndOr)
	pb := NewProber(mustPlan(t, ll))
	con := ll.Constraints[0]
	if pb.Busy(1, 5) {
		t.Fatal("empty window reports a reservation")
	}
	var c stats.Counters
	for _, issue := range []int{0, 10, -7} {
		sel, ok := pb.Check(con, issue, &c)
		if !ok {
			t.Fatalf("probe at %d failed", issue)
		}
		pb.Reserve(sel)
	}
	// Decoder (res 0) is used one cycle before issue, ALU (res 1) at issue.
	for _, issue := range []int{0, 10, -7} {
		if !pb.Busy(0, issue-1) || !pb.Busy(1, issue) {
			t.Fatalf("reservation at %d lost after growth", issue)
		}
	}
	if _, ok := pb.Check(con, 10, &c); ok {
		t.Fatal("second reservation of ALU@10 accepted")
	}
	pb.Reset()
	if pb.Busy(1, 10) || pb.Busy(1, -7) || len(pb.AppendReservedSlots(nil)) != 0 {
		t.Fatal("Reset did not clear the window")
	}
}

// The window grows downward by prepending doubled row blocks; every
// reservation made before the growth must keep its absolute cycle through
// the base shift. This drives the growth path far past the original base
// and then exercises Release, Busy and snapshots against it.
func TestNegativeWindowGrowthKeepsReservations(t *testing.T) {
	ll := compile(t, miniSrc, lowlevel.FormAndOr)
	pb := NewProber(mustPlan(t, ll))
	con := ll.Constraints[0]
	var c stats.Counters

	// Anchor a reservation near cycle 0 (its Decoder usage sits at -1).
	sel0, ok := pb.Check(con, 0, &c)
	if !ok {
		t.Fatal("anchor check failed")
	}
	pb.Reserve(sel0)
	before := pb.AppendReservedSlots(nil)

	// Force several rounds of downward doubling, far below the base.
	var deep []Selection
	for _, issue := range []int{-3, -17, -90, -400} {
		sel, ok := pb.Check(con, issue, &c)
		if !ok {
			t.Fatalf("check at %d failed", issue)
		}
		pb.Reserve(sel)
		deep = append(deep, sel)
	}
	for _, s := range before {
		if !pb.Busy(s[0], s[1]) {
			t.Fatalf("slot %v lost after downward growth", s)
		}
	}
	if pb.Busy(0, -2) || pb.Busy(0, -399) {
		t.Fatal("phantom reservation in grown rows")
	}

	// Releasing the deep reservations clears exactly their slots.
	for _, sel := range deep {
		pb.Release(sel)
	}
	after := pb.AppendReservedSlots(nil)
	if len(after) != len(before) {
		t.Fatalf("slots after deep release = %v, want %v", after, before)
	}
	for i := range before {
		if after[i] != before[i] {
			t.Fatalf("anchor slot %v moved to %v across growth", before[i], after[i])
		}
	}
	if _, ok := pb.Check(con, -400, &c); !ok {
		t.Fatal("deep cycle not reusable after release")
	}
}

// Snapshots report absolute cycles: after the base shifts downward, the
// slots of an earlier snapshot re-appear at identical coordinates.
func TestAppendReservedSlotsStableAcrossGrowth(t *testing.T) {
	ll := compile(t, negSrc, lowlevel.FormAndOr)
	pb := NewProber(mustPlan(t, ll))
	con := ll.Constraints[0]
	var c stats.Counters
	for _, issue := range []int{4, 1} {
		sel, ok := pb.Check(con, issue, &c)
		if !ok {
			t.Fatalf("probe at %d failed", issue)
		}
		pb.Reserve(sel)
	}
	snap1 := pb.AppendReservedSlots(nil)
	want := map[[2]int]bool{}
	for _, s := range snap1 {
		want[s] = true
	}
	// Grow downward well past the original base.
	sel, ok := pb.Check(con, -64, &c)
	if !ok {
		t.Fatal("probe at -64 failed")
	}
	pb.Reserve(sel)
	want[[2]int{0, -65}], want[[2]int{1, -64}] = true, true
	snap2 := pb.AppendReservedSlots(snap1[:0])
	if len(snap2) != len(want) {
		t.Fatalf("snapshot after growth = %v, want %v", snap2, want)
	}
	for _, s := range snap2 {
		if !want[s] {
			t.Fatalf("unexpected slot %v after growth", s)
		}
	}
}

// The append-into snapshot must be allocation-free once the caller's
// buffer has capacity: the verification harness snapshots after every
// reservation.
func TestAppendReservedSlotsNoAlloc(t *testing.T) {
	ll := compile(t, miniSrc, lowlevel.FormAndOr)
	pb := NewProber(mustPlan(t, ll))
	var c stats.Counters
	for _, issue := range []int{5, -30} {
		sel, ok := pb.Check(ll.Constraints[0], issue, &c)
		if !ok {
			t.Fatalf("probe at %d failed", issue)
		}
		pb.Reserve(sel)
	}
	buf := pb.AppendReservedSlots(nil)
	if allocs := testing.AllocsPerRun(100, func() { buf = pb.AppendReservedSlots(buf[:0]) }); allocs != 0 {
		t.Fatalf("AppendReservedSlots into a sized buffer allocates %.1f times per call, want 0", allocs)
	}
}

// The snapshot lists exactly the slots the reservation window reports
// busy, over every resource and every cycle around the reservations.
func TestAppendReservedSlotsMatchesMap(t *testing.T) {
	ll := compile(t, tinySrc, lowlevel.FormAndOr)
	pb := NewProber(mustPlan(t, ll))
	var c stats.Counters
	for cycle := 0; cycle < 4; cycle++ {
		for ci := range ll.Constraints {
			if sel, ok := pb.Check(ll.Constraints[ci], cycle, &c); ok {
				pb.Reserve(sel)
			}
		}
	}
	got := map[[2]int]bool{}
	for _, s := range pb.AppendReservedSlots(nil) {
		if got[s] {
			t.Fatalf("snapshot lists slot %v twice", s)
		}
		got[s] = true
	}
	busy := 0
	for res := 0; res < ll.NumResources; res++ {
		for cycle := -3; cycle < 8; cycle++ {
			if pb.Busy(res, cycle) {
				busy++
				if !got[[2]int{res, cycle}] {
					t.Fatalf("busy slot r%d@%d missing from the snapshot", res, cycle)
				}
			}
		}
	}
	if busy != len(got) {
		t.Fatalf("snapshot holds %d slots, the window %d", len(got), busy)
	}
}

// One load on an empty window reserves M at its issue cycle, the first
// write port one cycle later and the first decoder one cycle earlier.
func TestReservedSlots(t *testing.T) {
	ll := compile(t, miniSrc, lowlevel.FormAndOr)
	pb := NewProber(mustPlan(t, ll))
	var c stats.Counters
	sel, ok := pb.Check(ll.Constraints[0], 5, &c)
	if !ok {
		t.Fatal("empty window check failed")
	}
	pb.Reserve(sel)
	res := map[string]int{}
	for i, name := range ll.ResourceNames {
		res[name] = i
	}
	want := map[[2]int]bool{
		{res["M"], 5}:          true,
		{res["WrPt[0]"], 6}:    true,
		{res["Decoder[0]"], 4}: true,
	}
	slots := pb.AppendReservedSlots(nil)
	if len(slots) != len(want) {
		t.Fatalf("slots = %v, want %v", slots, want)
	}
	for _, s := range slots {
		if !want[s] {
			t.Fatalf("unexpected slot %v (want %v)", s, want)
		}
	}
}

// Check, Reserve and Release on one constraint: exact counts for the
// first check, a conflict at the held cycle, a fit one cycle later, and
// the held cycle free again after Release.
func TestCheckReserveRelease(t *testing.T) {
	ll := compile(t, miniSrc, lowlevel.FormAndOr)
	pb := NewProber(mustPlan(t, ll))
	con := ll.Constraints[0]
	var c stats.Counters

	sel, ok := pb.Check(con, 0, &c)
	if !ok {
		t.Fatal("empty window check failed")
	}
	// The first option of each tree is free: one attempt, three options
	// checked (one per tree), three resource checks.
	if c != (stats.Counters{Attempts: 1, OptionsChecked: 3, ResourceChecks: 3}) {
		t.Fatalf("counters = %+v", c)
	}
	pb.Reserve(sel)
	if _, ok := pb.Check(con, 0, &c); ok {
		t.Fatal("second load at the same cycle did not conflict on M")
	}
	// At cycle 1 nothing overlaps the first load (M@0, WrPt[0]@1,
	// Decoder[0]@-1): M@1, WrPt@2 and Decoder@0 are free.
	if _, ok := pb.Check(con, 1, &c); !ok {
		t.Fatal("load at cycle 1 did not fit")
	}
	pb.Release(sel)
	if _, ok := pb.Check(con, 0, &c); !ok {
		t.Fatal("the released cycle did not fit again")
	}
}

// doubleReserve reserves one selection twice and reports the panic, if any.
func doubleReserve(t *testing.T, ll *lowlevel.MDES) (r any) {
	t.Helper()
	pb := NewProber(mustPlan(t, ll))
	var c stats.Counters
	sel, ok := pb.Check(ll.Constraints[0], 0, &c)
	if !ok {
		t.Fatal("probe failed")
	}
	pb.Reserve(sel)
	defer func() { r = recover() }()
	pb.Reserve(sel)
	return nil
}

func TestDoubleReservationPanics(t *testing.T) {
	ll := compile(t, tinySrc, lowlevel.FormAndOr)
	pb := NewProber(mustPlan(t, ll))
	var c stats.Counters
	sel, ok := pb.Check(ll.Constraints[0], 0, &c)
	if !ok {
		t.Fatal("probe failed")
	}
	pb.Reserve(sel)
	defer func() {
		r := recover()
		if r == nil {
			t.Fatalf("double Reserve did not panic")
		}
		if !strings.Contains(r.(string), "double reservation") {
			t.Fatalf("panic = %v", r)
		}
	}()
	pb.Reserve(sel)
}

// The OR form's options carry several usages each; reserving one twice
// must panic on the first doubly-held slot.
func TestDoubleReservePanics(t *testing.T) {
	r := doubleReserve(t, compile(t, tinySrc, lowlevel.FormOR))
	if s, _ := r.(string); !strings.Contains(s, "double reservation") {
		t.Fatalf("double Reserve on the OR form: panic = %v", r)
	}
}

// Packed options reserve whole cycle masks; a second reservation of the
// same mask must panic too.
func TestPackedDoubleReservePanics(t *testing.T) {
	ll := compile(t, tinySrc, lowlevel.FormOR)
	opt.PackBitVectors(ll)
	r := doubleReserve(t, ll)
	if s, _ := r.(string); !strings.Contains(s, "double reservation") {
		t.Fatalf("double Reserve on a packed description: panic = %v", r)
	}
}

// Selections must stay valid while later probes append to the arena — the
// query layer retains several before releasing them — and only Reset may
// invalidate them.
func TestSelectionsSurviveArenaGrowth(t *testing.T) {
	ll := compile(t, tinySrc, lowlevel.FormAndOr)
	pb := NewProber(mustPlan(t, ll))
	var c stats.Counters

	var sels []Selection
	var want [][]int
	for cycle := 0; cycle < 50; cycle++ {
		for ci := range ll.Constraints {
			sel, ok := pb.Check(ll.Constraints[ci], cycle, &c)
			if !ok {
				continue
			}
			pb.Reserve(sel)
			sels = append(sels, sel)
			want = append(want, append([]int(nil), sel.Chosen...))
		}
	}
	if len(sels) < 20 {
		t.Fatalf("only %d selections; arena growth not exercised", len(sels))
	}
	for i, sel := range sels {
		for j := range sel.Chosen {
			if sel.Chosen[j] != want[i][j] {
				t.Fatalf("selection %d corrupted by arena growth", i)
			}
		}
	}
}

// Hand-assembled descriptions whose constraints never went through
// Compile/Decode carry stale indices; the planner must reject them rather
// than probe through a wrong span table.
func TestCompileRejectsStaleIndex(t *testing.T) {
	ll := compile(t, tinySrc, lowlevel.FormAndOr)
	ll.Constraints[1].Index = 7
	defer func() { ll.Constraints[1].Index = 1 }()
	if _, err := Compile(ll); err == nil {
		t.Fatalf("Compile accepted a constraint with a stale index")
	}
}

// A constraint pointer from a different description must be caught at
// probe time even when its index happens to be in range.
func TestProbeRejectsForeignConstraint(t *testing.T) {
	ll := compile(t, tinySrc, lowlevel.FormAndOr)
	other := compile(t, tinySrc, lowlevel.FormAndOr)
	pb := NewProber(mustPlan(t, ll))
	defer func() {
		if recover() == nil {
			t.Fatalf("foreign constraint probe did not panic")
		}
	}()
	var c stats.Counters
	pb.Check(other.Constraints[0], 0, &c)
}

// The loader refuses two trees of one constraint that use one resource
// at one time, so each finds its option free without seeing the other's.
// On a description assembled past that check, Place keeps Reserve's
// double-reservation panic.
func TestPlaceDoubleReservationPanics(t *testing.T) {
	ll := compile(t, `
machine Twice {
    resource R;
    resource S;
    class c {
        tree { option { R @ 0; } }
        tree { option { S @ 0; } }
    }
    operation OP class c latency 1;
}
`, lowlevel.FormAndOr)
	trees := ll.Constraints[0].Trees
	trees[1].Options[0].Usages[0].Res = trees[0].Options[0].Usages[0].Res
	pb := NewProber(mustPlan(t, ll))
	var c stats.Counters
	defer func() {
		if s, _ := recover().(string); !strings.Contains(s, "double reservation") {
			t.Fatalf("Place of overlapping trees: panic = %q", s)
		}
	}()
	pb.Place(ll.Constraints[0], 0, &c)
}
