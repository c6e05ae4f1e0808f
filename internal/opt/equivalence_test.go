package opt

import (
	"math/rand"
	"testing"

	"mdes/internal/hmdes"
	"mdes/internal/lowlevel"
	"mdes/internal/probeplan"
	"mdes/internal/stats"
)

// newProber compiles m's probe plan into a fresh reservation table; the
// plan is a snapshot, so compile after the passes under test have run.
func newProber(m *lowlevel.MDES) *probeplan.Prober {
	plan, err := probeplan.Compile(m)
	if err != nil {
		panic(err)
	}
	return probeplan.NewProber(plan)
}

// greedySchedule places a stream of operations with a simple greedy policy
// (each op at the earliest feasible cycle at or after its arrival cycle)
// and returns the issue cycles. This isolates the paper's core guarantee:
// "the exact same schedule is produced in each case, since all the
// execution constraints described in the machine descriptions are being
// preserved" (§4).
func greedySchedule(m *lowlevel.MDES, opStream []int, arrivals []int) []int {
	ru := newProber(m)
	var c stats.Counters
	issues := make([]int, len(opStream))
	for i, opIdx := range opStream {
		cycle := arrivals[i]
		for {
			sel, ok := ru.Check(m.ConstraintFor(opIdx, false), cycle, &c)
			if ok {
				ru.Reserve(sel)
				issues[i] = cycle
				break
			}
			cycle++
			if cycle > arrivals[i]+1000 {
				panic("greedySchedule: no feasible cycle")
			}
		}
	}
	return issues
}

// TestSchedulesIdenticalAcrossLevelsAndForms is the paper's central
// semantic invariant: every optimization level and both representations
// must produce identical schedules for identical input streams.
func TestSchedulesIdenticalAcrossLevelsAndForms(t *testing.T) {
	mach, err := hmdes.Load("fixture", fixtureSrc)
	if err != nil {
		t.Fatal(err)
	}
	r := rand.New(rand.NewSource(42))

	for trial := 0; trial < 25; trial++ {
		// Random op stream over the fixture's four live operations.
		n := 30
		opNames := []string{"ALU", "ALUC", "LD", "DIV"}
		stream := make([]int, n)
		arrivals := make([]int, n)
		cycle := 0
		for i := range stream {
			stream[i] = r.Intn(len(opNames))
			cycle += r.Intn(2)
			arrivals[i] = cycle
		}

		var reference []int
		for _, form := range []lowlevel.Form{lowlevel.FormOR, lowlevel.FormAndOr} {
			for lvl := LevelNone; lvl <= LevelFull; lvl++ {
				m := lowlevel.Compile(mach, form)
				// Map the op name stream to this MDES's indices.
				idxStream := make([]int, n)
				for i, s := range stream {
					idxStream[i] = m.OpIndex[opNames[s]]
				}
				Apply(m, lvl, Forward)
				got := greedySchedule(m, idxStream, arrivals)
				if reference == nil {
					reference = got
					continue
				}
				for i := range got {
					if got[i] != reference[i] {
						t.Fatalf("trial %d: form %v level %v: op %d issued at %d, reference %d",
							trial, form, lvl, i, got[i], reference[i])
					}
				}
			}
		}
	}
}

// TestBackwardShiftPreservesSchedulesToo: the backward-direction shift also
// preserves collision vectors, hence schedules.
func TestBackwardShiftPreservesSchedulesToo(t *testing.T) {
	mach, err := hmdes.Load("fixture", fixtureSrc)
	if err != nil {
		t.Fatal(err)
	}
	r := rand.New(rand.NewSource(7))
	n := 40
	stream := make([]int, n)
	arrivals := make([]int, n)
	for i := range stream {
		stream[i] = r.Intn(4)
		arrivals[i] = i / 2
	}
	base := lowlevel.Compile(mach, lowlevel.FormAndOr)
	ref := greedySchedule(base, stream, arrivals)

	m := lowlevel.Compile(mach, lowlevel.FormAndOr)
	EliminateRedundant(m)
	ShiftUsageTimes(m, Backward)
	got := greedySchedule(m, stream, arrivals)
	for i := range got {
		if got[i] != ref[i] {
			t.Fatalf("op %d issued at %d, reference %d", i, got[i], ref[i])
		}
	}
}

// TestOptimizationReducesChecks verifies the paper's efficiency direction:
// the fully optimized AND/OR form needs no more resource checks than the
// unoptimized OR form on the same stream.
func TestOptimizationReducesChecks(t *testing.T) {
	mach, err := hmdes.Load("fixture", fixtureSrc)
	if err != nil {
		t.Fatal(err)
	}
	r := rand.New(rand.NewSource(3))
	n := 200
	stream := make([]int, n)
	arrivals := make([]int, n)
	for i := range stream {
		stream[i] = r.Intn(4)
		arrivals[i] = i / 3
	}
	run := func(form lowlevel.Form, lvl Level) stats.Counters {
		m := lowlevel.Compile(mach, form)
		Apply(m, lvl, Forward)
		ru := newProber(m)
		var c stats.Counters
		for i, opIdx := range stream {
			cycle := arrivals[i]
			for {
				sel, ok := ru.Check(m.ConstraintFor(opIdx, false), cycle, &c)
				if ok {
					ru.Reserve(sel)
					break
				}
				cycle++
			}
		}
		return c
	}
	orBase := run(lowlevel.FormOR, LevelNone)
	aoFull := run(lowlevel.FormAndOr, LevelFull)
	if aoFull.ResourceChecks > orBase.ResourceChecks {
		t.Fatalf("optimized AND/OR checks %d > unoptimized OR checks %d",
			aoFull.ResourceChecks, orBase.ResourceChecks)
	}
	if aoFull.Attempts != orBase.Attempts {
		t.Fatalf("attempt counts differ: %d vs %d (schedules must be identical)",
			aoFull.Attempts, orBase.Attempts)
	}
}
