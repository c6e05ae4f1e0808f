package oracle

import (
	"math/rand"
	"testing"

	"mdes/internal/hmdes"
	"mdes/internal/lowlevel"
	"mdes/internal/machines"
	"mdes/internal/probeplan"
	"mdes/internal/stats"
)

// The oracle must agree with the probe-plan prober on every probe of an
// exhaustive (op × cycle ∈ [-maxlen, 2·maxlen]) sweep over the four
// hand-written machines — first on an empty machine, then after replaying
// identical random placement histories into both. maxlen is the magnitude
// envelope of the machine's usage times, so the sweep covers the negative
// decode-stage window and the cycles beyond every reservation.
func TestOracleAgreesWithProberExhaustively(t *testing.T) {
	for _, name := range machines.All {
		mach, err := machines.Load(name)
		if err != nil {
			t.Fatal(err)
		}
		orc := New(mach)
		m := orc.MDES() // the same unoptimized FormOR compile the oracle interprets
		plan, err := probeplan.Compile(m)
		if err != nil {
			t.Fatal(err)
		}
		ru := probeplan.NewProber(plan)
		var c stats.Counters

		lo, hi := orc.TimeBounds()
		maxlen := hi
		if -lo > maxlen {
			maxlen = -lo
		}
		if maxlen < 4 {
			maxlen = 4
		}

		sweep := func(stage string) {
			for opIdx := range m.Operations {
				con := m.ConstraintFor(opIdx, false)
				for cycle := -maxlen; cycle <= 2*maxlen; cycle++ {
					_, got := ru.Check(con, cycle, &c)
					want := orc.Probe(opIdx, cycle)
					if got != want {
						t.Fatalf("%s/%s: op %s cycle %d: prober=%v oracle=%v",
							name, stage, m.Operations[opIdx].Name, cycle, got, want)
					}
				}
			}
		}

		sweep("empty")

		// Replay identical random greedy histories into both and re-sweep.
		r := rand.New(rand.NewSource(int64(len(name)) * 77))
		for trial := 0; trial < 5; trial++ {
			ru.Reset()
			orc.Reset()
			cycle := 0
			for placed := 0; placed < 12; {
				opIdx := r.Intn(len(m.Operations))
				con := m.ConstraintFor(opIdx, false)
				sel, ok := ru.Check(con, cycle, &c)
				if ok != orc.Probe(opIdx, cycle) {
					t.Fatalf("%s: history probe disagrees at op %d cycle %d", name, opIdx, cycle)
				}
				if !ok {
					cycle++
					continue
				}
				ru.Reserve(sel)
				if !orc.Place(opIdx, cycle) {
					t.Fatalf("%s: oracle rejected a placement the prober accepted", name)
				}
				placed++
				cycle += r.Intn(2)
			}
			// Reservation snapshots must be identical slot for slot: the
			// greedy option choice itself, not just its feasibility, agrees.
			got := map[[2]int]bool{}
			for _, s := range ru.AppendReservedSlots(nil) {
				got[s] = true
			}
			want := orc.Slots()
			if len(got) != len(want) {
				t.Fatalf("%s trial %d: prober holds %d slots, oracle %d", name, trial, len(got), len(want))
			}
			for _, s := range want {
				if !got[[2]int{s.Res, s.Cycle}] {
					t.Fatalf("%s trial %d: oracle slot (r%d,c%d) missing from the prober", name, trial, s.Res, s.Cycle)
				}
			}
			sweep("history")
		}
	}
}

// Place must reserve exactly the highest-priority fitting option, and
// Unplace must restore the previous state exactly.
func TestOraclePlaceUnplace(t *testing.T) {
	mach, err := machines.Load(machines.SuperSPARC)
	if err != nil {
		t.Fatal(err)
	}
	orc := New(mach)
	opIdx := 0
	if !orc.Place(opIdx, 0) {
		t.Fatal("empty machine rejected a placement")
	}
	before := orc.Slots()
	if len(before) == 0 {
		t.Fatal("placement reserved no slots")
	}
	if !orc.Place(opIdx, 1) {
		t.Fatal("second placement failed")
	}
	orc.Unplace()
	after := orc.Slots()
	if len(after) != len(before) {
		t.Fatalf("Unplace left %d slots, want %d", len(after), len(before))
	}
	for i := range after {
		if after[i] != before[i] {
			t.Fatalf("slot %d: %v != %v after Unplace", i, after[i], before[i])
		}
	}
	orc.Reset()
	if len(orc.Slots()) != 0 {
		t.Fatal("Reset left reservations behind")
	}
}

// The in-order reference scheduler must be reproducible and must respect
// arrival and ordering constraints.
func TestOracleScheduleInOrder(t *testing.T) {
	mach, err := machines.Load(machines.K5)
	if err != nil {
		t.Fatal(err)
	}
	orc := New(mach)
	m := orc.MDES()
	r := rand.New(rand.NewSource(9))
	n := 40
	stream := make([]int, n)
	arrivals := make([]int, n)
	cycle := 0
	for i := range stream {
		stream[i] = r.Intn(len(m.Operations))
		cycle += r.Intn(2)
		arrivals[i] = cycle
	}
	issues, err := orc.ScheduleInOrder(stream, arrivals, 4096)
	if err != nil {
		t.Fatal(err)
	}
	for i := range issues {
		if issues[i] < arrivals[i] {
			t.Fatalf("op %d issued at %d before arrival %d", i, issues[i], arrivals[i])
		}
		if i > 0 && issues[i] < issues[i-1] {
			t.Fatalf("op %d issued at %d before predecessor's %d", i, issues[i], issues[i-1])
		}
	}
	orc.Reset()
	again, err := orc.ScheduleInOrder(stream, arrivals, 4096)
	if err != nil {
		t.Fatal(err)
	}
	for i := range issues {
		if issues[i] != again[i] {
			t.Fatalf("rescheduling diverged at op %d: %d vs %d", i, issues[i], again[i])
		}
	}
}

// lowlevel import is load-bearing for the compile the oracle wraps; keep
// the explicit reference so the dependency is visible in this test file.
var _ = lowlevel.FormOR

// Fold maps every slot to its cycle modulo II: a reservation blocks the
// same resource II cycles later, and an option whose own usages land on
// one folded slot never fits.
func TestFoldWrapsAndSelfCollides(t *testing.T) {
	mach, err := hmdes.Load("fold", `machine F {
	  resource A;
	  resource D;
	  class a { use A @ 0; }
	  class d { use D @ 0, D @ 2; }
	  operation OA class a latency 1;
	  operation OD class d latency 3;
	}`)
	if err != nil {
		t.Fatal(err)
	}
	orc := New(mach)
	a, d := orc.MDES().OpIndex["OA"], orc.MDES().OpIndex["OD"]
	orc.Fold(3)
	if !orc.Place(a, 1) || orc.Probe(a, 4) || orc.Probe(a, -2) || !orc.Probe(a, 5) {
		t.Fatal("A reserved at cycle 1 must block cycles 4 and -2 only, at II 3")
	}
	if !orc.Probe(d, 0) {
		t.Fatal("D @ 0 and D @ 2 collided at II 3")
	}
	orc.Fold(2)
	if orc.Probe(d, 0) || !orc.Probe(a, 1) {
		t.Fatal("Fold(2) must free every slot and refuse D @ 0, D @ 2")
	}
}
