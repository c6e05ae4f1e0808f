package check_test

import (
	"testing"

	"mdes/internal/check"
	"mdes/internal/hmdes"
	"mdes/internal/lowlevel"
	"mdes/internal/obs"
	"mdes/internal/resctx"
)

// Conflict attribution is the probe-plan prober's walk alone: a context
// on the automaton backend counts a failed probe as a conflict but names
// no blocking resource, because DFA states keep no reservation identity.
func TestAutomatonExplainFindsNothing(t *testing.T) {
	m, err := hmdes.Load("test", `
machine Tiny {
    resource ALU;
    class alu { use ALU @ 0; }
    operation ADD class alu latency 1;
}
`)
	if err != nil {
		t.Fatal(err)
	}
	ll := lowlevel.Compile(m, lowlevel.FormAndOr)
	if err := ll.Freeze(); err != nil {
		t.Fatal(err)
	}
	f, err := check.NewFactory(ll, check.KindAutomaton)
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry(ll.ConstraintNames(), ll.ResourceNames)
	p := resctx.NewPoolFor(f)
	p.Observe(&obs.Views{Metrics: reg, MDES: ll})
	cx := p.Get()
	con := ll.Constraints[0]
	sel, ok, _ := cx.Probe(obs.PhaseList, 0, "ADD", con, 0, &cx.Counters)
	if !ok {
		t.Fatal("first ADD did not issue")
	}
	cx.Reserve(sel)
	if _, ok, _ := cx.Probe(obs.PhaseList, 1, "ADD", con, 0, &cx.Counters); ok {
		t.Fatal("second ADD issued on a busy ALU")
	}
	cx.Release()
	s := reg.Snapshot()
	if s.Phases[obs.PhaseList].Conflicts != 1 {
		t.Fatalf("conflicts = %d, want 1", s.Phases[obs.PhaseList].Conflicts)
	}
	for _, r := range s.Resources {
		if r.Conflicts != 0 {
			t.Fatalf("automaton attributed a conflict to %s", r.Resource)
		}
	}
}
