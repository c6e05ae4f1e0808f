package check

import (
	"strings"
	"testing"

	"mdes/internal/hmdes"
	"mdes/internal/lowlevel"
	"mdes/internal/stats"
)

// tinySrc is automaton-eligible: few resources, all usage times >= 0.
const tinySrc = `
machine Tiny {
    resource Decoder[2];
    resource ALU;

    class alu {
        use ALU @ 0;
        one_of Decoder[0..1] @ 0;
    }
    operation ADD class alu latency 1;
}
`

// negSrc uses a negative usage time, which the automaton construction
// rejects until the usage-time shift has run.
const negSrc = `
machine Neg {
    resource Decoder[2];
    resource ALU;

    class alu {
        use ALU @ 0;
        one_of Decoder[0..1] @ -1;
    }
    operation ADD class alu latency 1;
}
`

func compile(t *testing.T, src string) *lowlevel.MDES {
	t.Helper()
	m, err := hmdes.Load("test", src)
	if err != nil {
		t.Fatal(err)
	}
	return lowlevel.Compile(m, lowlevel.FormAndOr)
}

func TestCapabilityMatrix(t *testing.T) {
	pp := Caps(KindProbePlan)
	if !pp.CanRelease || pp.MonotonicOnly || pp.Modulo {
		t.Fatalf("probeplan caps = %+v", pp)
	}
	if Kind(0) != KindProbePlan || Kinds()[0] != KindProbePlan {
		t.Fatalf("the zero Kind and the first listed backend must be probeplan")
	}
	au := Caps(KindAutomaton)
	if au.CanRelease || !au.MonotonicOnly {
		t.Fatalf("automaton caps = %+v", au)
	}
	mm := NewModulo(4, 3).Capabilities()
	if !mm.CanRelease || !mm.Modulo {
		t.Fatalf("modmap caps = %+v", mm)
	}
}

func TestParseKindRoundTrip(t *testing.T) {
	for _, k := range Kinds() {
		got, err := ParseKind(k.String())
		if err != nil || got != k {
			t.Fatalf("ParseKind(%q) = %v, %v", k.String(), got, err)
		}
	}
	for _, name := range []string{"bitmap", "rumap"} {
		if _, err := ParseKind(name); err == nil {
			t.Fatalf("ParseKind accepted unknown backend %q", name)
		}
	}
}

func TestFactoryRejectsIneligibleAutomaton(t *testing.T) {
	ll := compile(t, negSrc)
	if _, err := NewFactory(ll, KindAutomaton); err == nil {
		t.Fatalf("automaton factory accepted negative usage times")
	}
	// The same description is fine for the default backend.
	if _, err := NewFactory(ll, KindProbePlan); err != nil {
		t.Fatal(err)
	}
}

// Both backends must agree through the Checker interface on a machine
// with a real structural hazard: Tiny has 2 decoders and 1 ALU, so two
// ADDs fit in a cycle only if the ALU were free — it is not, so the
// second probe at the same cycle must fail on both backends.
func TestBackendsAgreeThroughInterface(t *testing.T) {
	ll := compile(t, tinySrc)
	con := ll.Constraints[0]

	for _, kind := range Kinds() {
		f, err := NewFactory(ll, kind)
		if err != nil {
			t.Fatal(err)
		}
		if f.Kind() != kind || f.Capabilities().Backend != Caps(kind).Backend {
			t.Fatalf("factory identity mismatch for %s", kind)
		}
		ck := f.New()
		ck.Reset()
		var c stats.Counters

		sel, ok := ck.Check(con, 0, &c)
		if !ok {
			t.Fatalf("%s: first issue at 0 failed", kind)
		}
		ck.Reserve(sel)
		if _, ok := ck.Check(con, 0, &c); ok {
			t.Fatalf("%s: ALU double-booked at cycle 0", kind)
		}
		if _, ok := ck.Check(con, 1, &c); !ok {
			t.Fatalf("%s: issue at 1 failed after ALU freed", kind)
		}
		if c.Attempts != 3 || c.Conflicts != 1 {
			t.Fatalf("%s: counters %+v", kind, c)
		}
	}
}

func TestAutomatonReleasePanics(t *testing.T) {
	ll := compile(t, tinySrc)
	f, err := NewFactory(ll, KindAutomaton)
	if err != nil {
		t.Fatal(err)
	}
	ck := f.New()
	ck.Reset()
	defer func() {
		r := recover()
		if r == nil {
			t.Fatalf("Release did not panic")
		}
		if !strings.Contains(r.(string), "cannot release") {
			t.Fatalf("panic = %v", r)
		}
	}()
	ck.Release(Selection{})
}

func TestAutomatonMonotonicPanics(t *testing.T) {
	ll := compile(t, tinySrc)
	f, err := NewFactory(ll, KindAutomaton)
	if err != nil {
		t.Fatal(err)
	}
	ck := f.New()
	ck.Reset()
	var c stats.Counters
	if _, ok := ck.Check(ll.Constraints[0], 3, &c); !ok {
		t.Fatalf("probe at 3 failed on empty window")
	}
	defer func() {
		if recover() == nil {
			t.Fatalf("probe behind the cursor did not panic")
		}
	}()
	ck.Check(ll.Constraints[0], 1, &c)
}

func TestModuloConfigurePanicsOnBadII(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatalf("Configure(0) did not panic")
		}
	}()
	NewModulo(4, 2).Configure(0)
}
