package automata

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"mdes/internal/hmdes"
	"mdes/internal/lowlevel"
	"mdes/internal/machines"
	"mdes/internal/opt"
	"mdes/internal/probeplan"
	"mdes/internal/stats"
)

// newProber compiles ll's probe plan into a fresh reservation table.
func newProber(t *testing.T, ll *lowlevel.MDES) *probeplan.Prober {
	t.Helper()
	plan, err := probeplan.Compile(ll)
	if err != nil {
		t.Fatal(err)
	}
	return probeplan.NewProber(plan)
}

func compiled(t *testing.T, name machines.Name) *lowlevel.MDES {
	t.Helper()
	m, err := machines.Load(name)
	if err != nil {
		t.Fatal(err)
	}
	ll := lowlevel.Compile(m, lowlevel.FormAndOr)
	opt.Apply(ll, opt.LevelFull, opt.Forward)
	return ll
}

func TestNewRejectsNegativeTimes(t *testing.T) {
	m, err := machines.Load(machines.SuperSPARC)
	if err != nil {
		t.Fatal(err)
	}
	ll := lowlevel.Compile(m, lowlevel.FormAndOr) // decode usages at -1
	if _, err := New(ll); err == nil {
		t.Fatalf("negative usage times accepted")
	}
}

func TestNewRejectsWideMachines(t *testing.T) {
	src := `machine W { resource R[65]; class c { use R[64] @ 0; } operation X class c; }`
	m, err := hmdes.Load("w", src)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := New(lowlevel.Compile(m, lowlevel.FormAndOr)); err == nil {
		t.Fatalf("65-resource machine accepted")
	}
}

func TestIssueAndAdvance(t *testing.T) {
	ll := compiled(t, machines.SuperSPARC)
	a, err := New(ll)
	if err != nil {
		t.Fatal(err)
	}
	loadClass := ll.ClassIndex["load"]
	s := a.Start()
	s1, ok := a.TryIssue(s, loadClass)
	if !ok {
		t.Fatalf("load cannot issue in empty state")
	}
	// Second load in the same cycle conflicts on the single memory unit.
	if _, ok := a.TryIssue(s1, loadClass); ok {
		t.Fatalf("two loads issued in one cycle")
	}
	// After advancing a cycle, a load fits again.
	s2 := a.Advance(s1)
	if _, ok := a.TryIssue(s2, loadClass); !ok {
		t.Fatalf("load cannot issue after advance")
	}
	// After full optimization the load's usages all sit at time zero, so
	// advancing the one-load state returns to the empty window: exactly
	// two distinct states.
	if a.States() < 2 {
		t.Fatalf("states = %d", a.States())
	}
	if a.MemoryBytes() <= 0 {
		t.Fatalf("MemoryBytes = %d", a.MemoryBytes())
	}
}

func TestMemoization(t *testing.T) {
	ll := compiled(t, machines.SuperSPARC)
	a, _ := New(ll)
	class := ll.ClassIndex["ialu1"]
	a.TryIssue(a.Start(), class)
	missesAfterFirst := a.Misses
	for i := 0; i < 10; i++ {
		a.TryIssue(a.Start(), class)
	}
	if a.Misses != missesAfterFirst {
		t.Fatalf("repeated query missed the cache: %d -> %d", missesAfterFirst, a.Misses)
	}
	if a.Lookups < 11 {
		t.Fatalf("Lookups = %d", a.Lookups)
	}
}

// The automaton must agree exactly with the reservation tables: same
// feasibility on every query of a random issue sequence.
func TestAgreesWithProber(t *testing.T) {
	for _, name := range machines.All {
		ll := compiled(t, name)
		a, err := New(ll)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		r := rand.New(rand.NewSource(9))
		ru := newProber(t, ll)
		var c stats.Counters
		st := a.Start()
		cycle := 0
		for step := 0; step < 3000; step++ {
			if r.Intn(3) == 0 {
				st = a.Advance(st)
				cycle++
				continue
			}
			class := r.Intn(len(ll.Constraints))
			next, okA := a.TryIssue(st, class)
			sel, okR := ru.Check(ll.Constraints[class], cycle, &c)
			if okA != okR {
				t.Fatalf("%s step %d: automaton %v, reservation tables %v (class %s)",
					name, step, okA, okR, ll.Constraints[class].Name)
			}
			if okA {
				ru.Reserve(sel)
				st = next
			}
		}
	}
}

// Greedy schedules through the automaton match greedy schedules through
// the reservation tables cycle for cycle.
func TestGreedySchedulesMatch(t *testing.T) {
	ll := compiled(t, machines.SuperSPARC)
	a, _ := New(ll)
	r := rand.New(rand.NewSource(4))
	// A stream of (class, earliest cycle) with in-order arrival.
	type item struct{ class, arrival int }
	var items []item
	for i := 0; i < 200; i++ {
		items = append(items, item{class: r.Intn(len(ll.Constraints)), arrival: i / 3})
	}

	// Reservation-table baseline. The automaton can never revisit a past
	// cycle (the window shifts forward — the limitation §10 notes for
	// unscheduling), so the baseline issues in non-decreasing cycles too.
	ru := newProber(t, ll)
	var c stats.Counters
	baseline := make([]int, len(items))
	floor := 0
	for i, it := range items {
		cy := it.arrival
		if floor > cy {
			cy = floor
		}
		for {
			if sel, ok := ru.Check(ll.Constraints[it.class], cy, &c); ok {
				ru.Reserve(sel)
				baseline[i] = cy
				break
			}
			cy++
		}
		floor = baseline[i]
	}

	// Automaton: walk cycle by cycle, issuing each item at its first
	// feasible cycle >= arrival.
	st := a.Start()
	cycle := 0
	got := make([]int, len(items))
	for i, it := range items {
		for cycle < it.arrival {
			st = a.Advance(st)
			cycle++
		}
		for {
			if next, ok := a.TryIssue(st, it.class); ok {
				st = next
				got[i] = cycle
				break
			}
			st = a.Advance(st)
			cycle++
		}
	}
	for i := range items {
		if got[i] != baseline[i] {
			t.Fatalf("item %d issued at %d, baseline %d", i, got[i], baseline[i])
		}
	}
}

func TestStateCountsBounded(t *testing.T) {
	// Exhaustively exercising the SuperSPARC automaton should keep the
	// lazily-built state space modest (the Bala-Rubin observation).
	ll := compiled(t, machines.SuperSPARC)
	a, _ := New(ll)
	r := rand.New(rand.NewSource(2))
	st := a.Start()
	for step := 0; step < 20000; step++ {
		if r.Intn(4) == 0 {
			st = a.Advance(st)
			continue
		}
		if next, ok := a.TryIssue(st, r.Intn(len(ll.Constraints))); ok {
			st = next
		}
	}
	if a.States() > 100000 {
		t.Fatalf("state explosion: %d states", a.States())
	}
	t.Logf("states=%d memory=%dB lookups=%d misses=%d",
		a.States(), a.MemoryBytes(), a.Lookups, a.Misses)
}

// A cursor only moves forward: a probe behind the cycle it has reached
// panics instead of answering from a window that has already shifted.
func TestAutomatonMonotonicPanics(t *testing.T) {
	m, err := hmdes.Load("tiny", `
machine Tiny {
    resource Decoder[2];
    resource ALU;
    class alu { use ALU @ 0; one_of Decoder[0..1] @ 0; }
    operation ADD class alu latency 1;
}
`)
	if err != nil {
		t.Fatal(err)
	}
	ll := lowlevel.Compile(m, lowlevel.FormAndOr)
	sh, err := NewShared(ll)
	if err != nil {
		t.Fatal(err)
	}
	cur := sh.NewCursor()
	var c stats.Counters
	if _, ok := cur.Check(ll.Constraints[0], 3, &c); !ok {
		t.Fatalf("probe at 3 failed on empty window")
	}
	defer func() {
		r := recover()
		if r == nil || !strings.Contains(fmt.Sprint(r), "behind the cursor") {
			t.Fatalf("probe behind the cursor: recovered %v", r)
		}
	}()
	cur.Check(ll.Constraints[0], 1, &c)
}
