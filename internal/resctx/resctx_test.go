package resctx

import (
	"strings"
	"sync"
	"testing"

	"mdes/internal/check"
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

func tinyMDES(t *testing.T) *lowlevel.MDES {
	t.Helper()
	m, err := hmdes.Load("tiny", tinySrc)
	if err != nil {
		t.Fatal(err)
	}
	return lowlevel.Compile(m, lowlevel.FormAndOr)
}

func testPool(t *testing.T) *Pool {
	t.Helper()
	f, err := check.NewFactory(tinyMDES(t), check.KindProbePlan)
	if err != nil {
		t.Fatal(err)
	}
	return NewPoolFor(f)
}

// reserveADD reserves one ADD at cycle 0 through the context.
func reserveADD(t *testing.T, c *Context, m *lowlevel.MDES) {
	t.Helper()
	sel, ok := c.Check(m.Constraints[0], 0, &c.Counters)
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
	f, err := check.NewFactory(m, check.KindProbePlan)
	if err != nil {
		t.Fatal(err)
	}
	p := NewPoolFor(f)
	c := p.Get()
	if c.PP == nil || c.Checker != nil {
		t.Fatal("pooled probe-plan context must carry the prober and no interface checker")
	}
	reserveADD(t, c, m)
	c.Counters = stats.Counters{Attempts: 3, OptionsChecked: 5, ResourceChecks: 11}
	c.Sels = append(c.Sels, check.Selection{})
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
	if len(c2.Sels) != 0 || len(c2.PP.AppendReservedSlots(nil)) != 0 {
		t.Fatalf("recycled context has stale selections %v or reservations", c2.Sels)
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
	c.Sels = append(c.Sels, check.Selection{})
	c.Reset()
	if c.Counters != (stats.Counters{}) || len(c.Sels) != 0 || len(c.PP.AppendReservedSlots(nil)) != 0 {
		t.Fatalf("Reset left state: %+v sels=%v slots=%v", c.Counters, c.Sels, c.PP.AppendReservedSlots(nil))
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

func TestPoolMetricsMergeOnRelease(t *testing.T) {
	p := testPool(t)
	reg := obs.NewRegistry([]string{"alu"}, []string{"r0", "r1"})
	p.SetMetrics(reg)

	c := p.Get()
	if c.Obs == nil {
		t.Fatal("metrics-enabled pool handed out a context without an obs.Local")
	}
	if got := reg.Snapshot().InFlight; got != 1 {
		t.Fatalf("in-flight = %d, want 1", got)
	}
	c.Obs.Attempt(obs.PhaseList, 0, 2, 3, 10, false)
	c.Obs.ConflictAt(1)
	c.Release()
	c.Release() // idempotent for the registry too

	s := reg.Snapshot()
	if s.InFlight != 0 {
		t.Fatalf("in-flight after release = %d", s.InFlight)
	}
	if s.Merges != 1 {
		t.Fatalf("merges = %d, want 1 (double release must not re-merge)", s.Merges)
	}
	if s.Phases[obs.PhaseList].Attempts != 1 || s.Resources[1].Conflicts != 1 {
		t.Fatalf("merged snapshot = %+v", s)
	}

	// The recycled context's local must be clean.
	c2 := p.Get()
	if c2.Obs == nil {
		t.Fatal("recycled context lost its obs.Local")
	}
	c2.Release()
	if got := reg.Snapshot().Phases[obs.PhaseList].Attempts; got != 1 {
		t.Fatalf("clean recycled local changed attempts: %d", got)
	}
}

func TestPoolFlightMergeOnRelease(t *testing.T) {
	rec := flight.NewRecorder(flight.Config{})
	p := testPool(t)
	p.SetFlight(rec)
	if p.Flight() != rec {
		t.Fatal("Flight() did not return the attached recorder")
	}

	c := p.Get()
	if c.Flight == nil {
		t.Fatal("pooled context has no flight ring after SetFlight")
	}
	c.Flight.Record(&flight.Entry{Block: 7, Phase: obs.PhaseList, Ops: 3, Length: 5, WallNs: 100})
	c.Release()

	if got := rec.Blocks(); got != 1 {
		t.Fatalf("recorder merged %d blocks, want 1", got)
	}
	snap := rec.Snapshot()
	if len(snap.Recent) != 1 || snap.Recent[0].Block != 7 {
		t.Fatalf("recent = %+v", snap.Recent)
	}

	// Recycled contexts keep their ring; entries must not leak across
	// borrows.
	c2 := p.Get()
	if c2.Flight == nil {
		t.Fatal("recycled context lost its flight ring")
	}
	c2.Release()
	if got := rec.Blocks(); got != 1 {
		t.Fatalf("empty release added blocks: %d", got)
	}
}

func TestPoolWithoutFlightHasNoRing(t *testing.T) {
	p := testPool(t)
	c := p.Get()
	if c.Flight != nil {
		t.Fatal("context has a flight ring without SetFlight")
	}
	c.Release()
}
