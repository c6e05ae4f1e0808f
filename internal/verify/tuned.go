package verify

import (
	"mdes/internal/lowlevel"
	"mdes/internal/oracle"
	"mdes/internal/stats"
)

// CheckEquivalent differentially compares two compiled descriptions of
// the same machine — typically a freshly-optimized description and the
// same description after a layout-only pass like opt.ReorderFromProfile —
// asserting that they accept exactly the same schedules:
//
//   - the deterministic in-order stream (same construction as the seed
//     sweep) must issue every operation at identical cycles through a
//     fresh probe plan on each description, with identical Attempts
//     and Conflicts (a layout pass may only change OptionsChecked and
//     ResourceChecks);
//   - after the replay, an exhaustive (operation × cycle) probe grid
//     over the full reservation envelope must answer identically.
//
// This is the safety gate of the tuning loop: a reorder that changed any
// scheduling decision fails here before any artifact is written.
func CheckEquivalent(base, tuned *lowlevel.MDES, streamSeed int64) error {
	const stage = "tune/equivalence"
	if len(base.Operations) != len(tuned.Operations) {
		return stageErrf(stage, "operation tables differ: %d vs %d entries",
			len(base.Operations), len(tuned.Operations))
	}
	nOps := len(base.Operations)
	if nOps == 0 {
		return nil
	}
	for i := range base.Operations {
		if base.Operations[i].Name != tuned.Operations[i].Name {
			return stageErrf(stage, "operation %d renamed: %q vs %q",
				i, base.Operations[i].Name, tuned.Operations[i].Name)
		}
	}

	stream, arrivals := makeStream(nOps, streamSeed)
	cxA, err := planContext(stage, base)
	if err != nil {
		return err
	}
	cxB, err := planContext(stage, tuned)
	if err != nil {
		return err
	}
	var cA, cB stats.Counters
	issA, errA := schedule(base, cxA, stream, arrivals, &cA)
	issB, errB := schedule(tuned, cxB, stream, arrivals, &cB)
	if (errA == nil) != (errB == nil) {
		return stageErrf(stage, "schedulability diverged: base err=%v tuned err=%v", errA, errB)
	}
	if errA != nil {
		return stageErrf(stage, "stream unschedulable on both: %v", errA)
	}
	for i := range issA {
		if issA[i] != issB[i] {
			return stageErrf(stage, "schedule diverged: op %d (%s) issued at %d on base, %d on tuned",
				i, base.Operations[stream[i]].Name, issA[i], issB[i])
		}
	}
	if cA.Attempts != cB.Attempts || cA.Conflicts != cB.Conflicts {
		return stageErrf(stage, "probe accounting diverged beyond layout: base attempts=%d conflicts=%d, tuned attempts=%d conflicts=%d",
			cA.Attempts, cA.Conflicts, cB.Attempts, cB.Conflicts)
	}

	// Post-schedule probe grid over the union reservation envelope.
	loA, hiA := oracle.TimeBounds(base)
	loB, hiB := oracle.TimeBounds(tuned)
	if loB < loA {
		loA = loB
	}
	if hiB > hiA {
		hiA = hiB
	}
	w := window{lo: loA - 2, hi: issA[len(issA)-1] + hiA + 2}
	for op := 0; op < nOps; op++ {
		for cycle := w.lo; cycle <= w.hi; cycle++ {
			gotA := probe(cxA, base, op, cycle, &cA)
			gotB := probe(cxB, tuned, op, cycle, &cB)
			if gotA != gotB {
				return stageErrf(stage, "probe diverged: op %s at cycle %d: base=%v tuned=%v",
					base.Operations[op].Name, cycle, gotA, gotB)
			}
		}
	}
	return nil
}
