package opt

import (
	"strings"
	"testing"

	"mdes/internal/lowlevel"
	"mdes/internal/machines"
)

// checkProvenance asserts every pooled option and tree carries a
// non-empty HMDES source label.
func checkProvenance(t *testing.T, m *lowlevel.MDES, when string) {
	t.Helper()
	for _, o := range m.Options {
		if o.Src == "" {
			t.Fatalf("%s: option %d has no provenance", when, o.ID)
		}
	}
	for _, tr := range m.Trees {
		if tr.Src == "" {
			t.Fatalf("%s: tree %d (%s) has no provenance", when, tr.ID, tr.Name)
		}
	}
}

// TestProvenanceSurvivesPasses compiles every builtin machine at both
// forms and checks that the HMDES source labels set by lowlevel.Compile
// survive the full optimization pipeline — CSE, pruning, packing,
// shifting, sorting, hoisting — and the factoring extension.
func TestProvenanceSurvivesPasses(t *testing.T) {
	for _, name := range machines.AllExtended {
		hm, err := machines.Load(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, form := range []lowlevel.Form{lowlevel.FormOR, lowlevel.FormAndOr} {
			m := lowlevel.Compile(hm, form)
			checkProvenance(t, m, string(name)+" compiled")
			if form == lowlevel.FormOR {
				FactorORTrees(m)
				checkProvenance(t, m, string(name)+" factored")
			}
			Apply(m, LevelFull, Forward)
			checkProvenance(t, m, string(name)+" optimized")
		}
	}
}

// TestProvenanceExpandAndIndexSyntax checks the Src label syntax: OR-form
// options come from "<class>!expand[i]", AND/OR options from
// "<tree>[i]" with the authoring tree's name.
func TestProvenanceExpandAndIndexSyntax(t *testing.T) {
	m := compileFixture(t, lowlevel.FormOR)
	for _, o := range m.Options {
		if !strings.Contains(o.Src, "!expand[") {
			t.Fatalf("OR option provenance %q lacks !expand[i]", o.Src)
		}
	}
	m = compileFixture(t, lowlevel.FormAndOr)
	sawNamed := false
	for _, tr := range m.Trees {
		if tr.Src == "AnyDec" {
			sawNamed = true
			for _, o := range tr.Options {
				if !strings.HasPrefix(o.Src, "AnyDec[") {
					t.Fatalf("named-tree option provenance %q", o.Src)
				}
			}
		}
	}
	if !sawNamed {
		t.Fatal("fixture's named tree AnyDec not found in provenance")
	}
}

// TestProvenanceEncodeRoundTrip checks Src fields survive the arena
// encoding.
func TestProvenanceEncodeRoundTrip(t *testing.T) {
	m := compileFixture(t, lowlevel.FormAndOr)
	Apply(m, LevelFull, Forward)
	buf, err := m.EncodeArena()
	if err != nil {
		t.Fatal(err)
	}
	a, err := lowlevel.OpenArena(buf)
	if err != nil {
		t.Fatal(err)
	}
	back := a.MDES()
	if len(back.Options) != len(m.Options) || len(back.Trees) != len(m.Trees) {
		t.Fatalf("round trip changed pools")
	}
	for i := range m.Options {
		if back.Options[i].Src != m.Options[i].Src {
			t.Fatalf("option %d: Src %q != %q", i, back.Options[i].Src, m.Options[i].Src)
		}
	}
	for i := range m.Trees {
		if back.Trees[i].Src != m.Trees[i].Src {
			t.Fatalf("tree %d: Src %q != %q", i, back.Trees[i].Src, m.Trees[i].Src)
		}
	}
}
