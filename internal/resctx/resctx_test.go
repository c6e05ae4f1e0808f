package resctx

import (
	"strings"
	"sync"
	"testing"

	"mdes/internal/hmdes"
	"mdes/internal/lowlevel"
	"mdes/internal/obs"
	"mdes/internal/obs/flight"
	"mdes/internal/stats"
)

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

func tinyMDES(t *testing.T) *lowlevel.MDES { return compile(t, tinySrc) }

func newPool(t *testing.T, m *lowlevel.MDES, kind Kind) *Pool {
	t.Helper()
	p, err := NewPool(m, kind)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func testPool(t *testing.T) *Pool { return newPool(t, tinyMDES(t), KindProbePlan) }

// reserveADD reserves one ADD at cycle 0 through the context.
func reserveADD(t *testing.T, c *Context, m *lowlevel.MDES) {
	t.Helper()
	sel, ok, _ := c.Probe(obs.PhaseList, 0, "ADD", m.Constraints[0], 0, &c.Counters)
	if !ok {
		t.Fatal("ADD did not fit an empty reservation table")
	}
	c.Reserve(sel)
}

func TestStandaloneReleaseIsNoop(t *testing.T) {
	c := Standalone(tinyMDES(t))
	c.Counters.Attempts = 7
	c.Release() // must not panic or reset
	if c.Counters.Attempts != 7 {
		t.Fatalf("standalone Release mutated counters: %+v", c.Counters)
	}
}

func TestPoolRecyclesAndAggregates(t *testing.T) {
	m := tinyMDES(t)
	p := newPool(t, m, KindProbePlan)
	c := p.Get()
	reserveADD(t, c, m)
	c.Counters = stats.Counters{Attempts: 3, OptionsChecked: 5, ResourceChecks: 11}
	c.Release()

	got := p.Totals()
	want := stats.Counters{Attempts: 3, OptionsChecked: 5, ResourceChecks: 11}
	if got != want {
		t.Fatalf("Totals = %+v, want %+v", got, want)
	}

	c2 := p.Get()
	if c2.Counters != (stats.Counters{}) {
		t.Fatalf("recycled context has stale counters: %+v", c2.Counters)
	}
	if len(c2.PP.AppendReservedSlots(nil)) != 0 {
		t.Fatal("recycled context has stale reservations")
	}
	c2.Release()
}

func TestPoolTotalsConcurrent(t *testing.T) {
	p := testPool(t)
	const workers, rounds = 8, 50
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				c := p.Get()
				c.Counters.Attempts++
				c.Release()
			}
		}()
	}
	wg.Wait()
	if got := p.Totals().Attempts; got != workers*rounds {
		t.Fatalf("Totals.Attempts = %d, want %d", got, workers*rounds)
	}
}

func TestResetClearsReservations(t *testing.T) {
	m := tinyMDES(t)
	c := Standalone(m)
	reserveADD(t, c, m)
	c.Reset()
	if c.Counters != (stats.Counters{}) || len(c.PP.AppendReservedSlots(nil)) != 0 {
		t.Fatalf("Reset left state: %+v slots=%v", c.Counters, c.PP.AppendReservedSlots(nil))
	}
}

// Standalone snapshots a frozen description: the description is frozen
// by the call, and one the planner rejects panics with the planner's
// message instead of yielding a context that probes the wrong spans.
func TestStandaloneFreezesAndPlans(t *testing.T) {
	m := tinyMDES(t)
	Standalone(m)
	if !m.Frozen() {
		t.Fatal("Standalone did not freeze the description")
	}
	stale := tinyMDES(t)
	stale.Constraints[0].Index = 3
	defer func() {
		r := recover()
		err, ok := r.(error)
		if !ok || !strings.Contains(err.Error(), "probeplan: constraint 0") {
			t.Fatalf("stale index: recovered %v, want the planner's error", r)
		}
	}()
	Standalone(stale)
}

// A context that only accounts (the modulo scheduler's) carries no
// backend; resetting it must still be safe.
func TestAccountingOnlyContextResets(t *testing.T) {
	c := &Context{}
	c.Counters.Attempts = 2
	c.Reset()
	if c.Counters != (stats.Counters{}) {
		t.Fatalf("Reset left counters %+v", c.Counters)
	}
}

func TestDoubleReleaseFoldsOnce(t *testing.T) {
	p := testPool(t)
	c := p.Get()
	c.Counters = stats.Counters{Attempts: 5, OptionsChecked: 9, ResourceChecks: 13, Conflicts: 2, Backtracks: 1}
	c.Release()
	c.Release() // must be a no-op: counters were already folded and reset
	want := stats.Counters{Attempts: 5, OptionsChecked: 9, ResourceChecks: 13, Conflicts: 2, Backtracks: 1}
	if got := p.Totals(); got != want {
		t.Fatalf("Totals after double release = %+v, want %+v", got, want)
	}
}

func TestDoubleReleaseDoesNotAliasContexts(t *testing.T) {
	// A non-idempotent Put would insert the same context into the pool
	// twice, handing one context to two borrowers whose counters would
	// then be folded twice. After a double release, two Gets must return
	// distinct contexts.
	p := testPool(t)
	c := p.Get()
	c.Release()
	c.Release()
	a, b := p.Get(), p.Get()
	if a == b {
		t.Fatal("double release aliased one context to two borrowers")
	}
	a.Release()
	b.Release()
}

// observedPool returns a pool over m whose contexts fold into views.
func observedPool(t *testing.T, m *lowlevel.MDES, v *obs.Views) *Pool {
	t.Helper()
	p := newPool(t, m, KindProbePlan)
	p.Observe(v)
	return p
}

func TestPoolMetricsMergeOnRelease(t *testing.T) {
	m := tinyMDES(t)
	reg := obs.NewRegistry(m.ConstraintNames(), m.ResourceNames)
	p := observedPool(t, m, &obs.Views{Metrics: reg, MDES: m})

	c := p.Get()
	if c.Obs == nil {
		t.Fatal("observing pool handed out a context without a buffer")
	}
	if got := reg.Snapshot().InFlight; got != 1 {
		t.Fatalf("in-flight = %d, want 1", got)
	}
	// The second ADD at cycle 0 conflicts on the busy ALU; the probe
	// helper attributes it.
	con := m.Constraints[0]
	sel, ok, _ := c.Probe(obs.PhaseList, 0, "ADD", con, 0, &c.Counters)
	if !ok {
		t.Fatal("ADD did not fit an empty reservation table")
	}
	c.Reserve(sel)
	if _, ok, _ := c.Probe(obs.PhaseList, 1, "ADD", con, 0, &c.Counters); ok {
		t.Fatal("second ADD issued on a busy ALU")
	}
	c.Release()
	c.Release() // idempotent for the registry too

	s := reg.Snapshot()
	if s.InFlight != 0 {
		t.Fatalf("in-flight after release = %d", s.InFlight)
	}
	if s.Merges != 1 {
		t.Fatalf("merges = %d, want 1 (double release must not re-merge)", s.Merges)
	}
	alu := -1
	for i, name := range m.ResourceNames {
		if name == "ALU" {
			alu = i
		}
	}
	if s.Phases[obs.PhaseList].Attempts != 2 || s.Resources[alu].Conflicts != 1 {
		t.Fatalf("merged snapshot = %+v", s)
	}

	// The recycled context's buffer must be clean.
	c2 := p.Get()
	if c2.Obs == nil {
		t.Fatal("recycled context lost its buffer")
	}
	c2.Release()
	if got := reg.Snapshot().Phases[obs.PhaseList].Attempts; got != 2 {
		t.Fatalf("clean recycled buffer changed attempts: %d", got)
	}
}

func TestPoolFlightMergeOnRelease(t *testing.T) {
	m := tinyMDES(t)
	rec := flight.NewRecorder(flight.Config{})
	p := observedPool(t, m, &obs.Views{Flight: rec, MDES: m})

	c := p.Get()
	if c.Obs == nil {
		t.Fatal("pooled context has no buffer with a flight recorder attached")
	}
	if c.Obs.PerAttempt() {
		t.Fatal("the flight recorder alone consumes per-attempt events")
	}
	c.Obs.BlockDone(obs.PhaseList, 7, 3, 5, stats.Counters{Attempts: 4})
	c.Release()

	if got := rec.Blocks(); got != 1 {
		t.Fatalf("recorder merged %d blocks, want 1", got)
	}
	snap := rec.Snapshot()
	if len(snap.Recent) != 1 || snap.Recent[0].Block != 7 || snap.Recent[0].Attempts != 4 {
		t.Fatalf("recent = %+v", snap.Recent)
	}

	// Recycled contexts keep their buffer; entries must not leak across
	// borrows.
	c2 := p.Get()
	if c2.Obs == nil {
		t.Fatal("recycled context lost its buffer")
	}
	c2.Release()
	if got := rec.Blocks(); got != 1 {
		t.Fatalf("empty release added blocks: %d", got)
	}
}

func TestPoolWithoutFlightHasNoRing(t *testing.T) {
	p := testPool(t)
	c := p.Get()
	if c.Obs != nil {
		t.Fatal("context has an observation buffer with no views attached")
	}
	c.Release()
}

// Each backend is the concrete table its contexts hold, and that table
// is what the backend can do: the prober probes behind a reservation and
// releases it; the automaton cursor does neither, so the random-access
// schedulers refuse a context whose Auto is set.
func TestCapabilityMatrix(t *testing.T) {
	if Kind(0) != KindProbePlan || Kinds()[0] != KindProbePlan {
		t.Fatalf("the zero Kind and the first listed backend must be probeplan")
	}
	m := tinyMDES(t)
	pp := newPool(t, m, KindProbePlan).Get()
	if pp.PP == nil || pp.Mod != nil || pp.Auto != nil {
		t.Fatalf("probeplan context holds %+v", pp)
	}
	con := m.Constraints[0]
	var c stats.Counters
	sel, ok := pp.PP.Check(con, 3, &c)
	if !ok {
		t.Fatal("ADD did not fit an empty reservation table at 3")
	}
	pp.Reserve(sel)
	if _, ok, _ := pp.Probe(obs.PhaseList, 0, "ADD", con, 1, &c); !ok {
		t.Fatal("probe-plan context refused a probe behind its reservation")
	}
	pp.PP.Release(sel)
	if len(pp.PP.AppendReservedSlots(nil)) != 0 {
		t.Fatal("Release left the reservation in place")
	}
	au := newPool(t, m, KindAutomaton).Get()
	if au.Auto == nil || au.PP != nil || au.Mod != nil {
		t.Fatalf("automaton context holds %+v", au)
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
		_, err := ParseKind(name)
		if err == nil || !strings.Contains(err.Error(), "unknown checker backend") {
			t.Fatalf("ParseKind(%q) = %v, want the unknown-backend error", name, err)
		}
	}
}

func TestFactoryRejectsIneligibleAutomaton(t *testing.T) {
	m := compile(t, negSrc)
	if _, err := NewPool(m, KindAutomaton); err == nil {
		t.Fatalf("automaton pool accepted negative usage times")
	}
	// The same description is fine for the default backend.
	if _, err := NewPool(m, KindProbePlan); err != nil {
		t.Fatal(err)
	}
	if _, err := NewPool(tinyMDES(t), Kind(7)); err == nil {
		t.Fatal("NewPool accepted an unknown backend")
	}
}

// Both backends must agree through the context on a machine with a real
// structural hazard: Tiny has 2 decoders and 1 ALU, so two ADDs fit in a
// cycle only if the ALU were free — it is not, so the second probe at the
// same cycle must fail on both backends.
func TestBackendsAgreeThroughInterface(t *testing.T) {
	for _, kind := range Kinds() {
		m := tinyMDES(t)
		con := m.Constraints[0]
		cx := newPool(t, m, kind).Get()
		var c stats.Counters
		sel, ok, _ := cx.Probe(obs.PhaseList, 0, "ADD", con, 0, &c)
		if !ok {
			t.Fatalf("%s: first issue at 0 failed", kind)
		}
		cx.Reserve(sel)
		if _, ok, _ := cx.Probe(obs.PhaseList, 1, "ADD", con, 0, &c); ok {
			t.Fatalf("%s: ALU double-booked at cycle 0", kind)
		}
		if _, ok, _ := cx.Probe(obs.PhaseList, 1, "ADD", con, 1, &c); !ok {
			t.Fatalf("%s: issue at 1 failed after ALU freed", kind)
		}
		if c.Attempts != 3 || c.Conflicts != 1 {
			t.Fatalf("%s: counters %+v", kind, c)
		}
	}
}

// Conflict attribution is the probe-plan prober's walk alone: a context
// on the automaton backend counts a failed probe as a conflict but names
// no blocking resource, because DFA states keep no reservation identity.
func TestAutomatonExplainFindsNothing(t *testing.T) {
	m := compile(t, `
machine Tiny {
    resource ALU;
    class alu { use ALU @ 0; }
    operation ADD class alu latency 1;
}
`)
	reg := obs.NewRegistry(m.ConstraintNames(), m.ResourceNames)
	p := newPool(t, m, KindAutomaton)
	p.Observe(&obs.Views{Metrics: reg, MDES: m})
	cx := p.Get()
	con := m.Constraints[0]
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
