package modsched

import (
	"slices"
	"testing"

	"mdes/internal/hmdes"
	"mdes/internal/ir"
	"mdes/internal/lowlevel"
	"mdes/internal/machines"
	"mdes/internal/obs"
	"mdes/internal/opt"
	"mdes/internal/probeplan"
	"mdes/internal/resctx"
	"mdes/internal/stats"
)

// pipeSrc: a single-issue-per-unit machine with one memory port, one ALU
// and a two-deep multiplier pipeline.
const pipeSrc = `
machine Pipe {
    resource M;
    resource ALU;
    resource MulA;
    resource MulB;

    class load { use M @ 0; }
    class alu  { use ALU @ 0; }
    class mul  { use MulA @ 0, MulB @ 1; }

    operation LD  class load latency 2;
    operation ADD class alu latency 1;
    operation MUL class mul latency 2;
}
`

func pipeMDES(t *testing.T, level opt.Level) *lowlevel.MDES {
	t.Helper()
	m, err := hmdes.Load("pipe", pipeSrc)
	if err != nil {
		t.Fatal(err)
	}
	ll := lowlevel.Compile(m, lowlevel.FormAndOr)
	opt.Apply(ll, level, opt.Forward)
	return ll
}

func op(opcode string, dests, srcs []int) *ir.Operation {
	o := &ir.Operation{Opcode: opcode, Dests: dests, Srcs: srcs}
	if opcode == "LD" {
		o.Mem = ir.MemLoad
	}
	return o
}

// verify checks a modulo schedule: all dependences satisfied and no
// resource slot used twice modulo II (using first-option accounting is not
// valid — replay the actual selections via a fresh map instead).
func verify(t *testing.T, s *Scheduler, l *Loop, sched *Schedule) {
	t.Helper()
	deps, _, err := s.deps(l)
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range deps {
		if sched.Issue[d.To] < sched.Issue[d.From]+d.MinDist-d.Omega*sched.II {
			t.Fatalf("dependence %d->%d violated: %d < %d + %d - %d*%d",
				d.From, d.To, sched.Issue[d.To], sched.Issue[d.From], d.MinDist, d.Omega, sched.II)
		}
	}
}

func TestEmptyLoop(t *testing.T) {
	s := New(pipeMDES(t, opt.LevelNone))
	sched, err := s.Schedule(&Loop{Body: &ir.Block{}})
	if err != nil || sched.II != 1 {
		t.Fatalf("empty loop: %v %+v", err, sched)
	}
}

func TestResMIIBindsOnMemoryPort(t *testing.T) {
	// Three independent loads share one memory port: II = 3.
	s := New(pipeMDES(t, opt.LevelNone))
	l := &Loop{Body: &ir.Block{Ops: []*ir.Operation{
		op("LD", []int{1}, []int{0}),
		op("LD", []int{2}, []int{0}),
		op("LD", []int{3}, []int{0}),
	}}}
	// Loads are serialized by nothing else; drop the implicit mem edges by
	// marking them loads only (the graph builder adds store ordering only).
	mii, err := s.MII(l)
	if err != nil {
		t.Fatal(err)
	}
	if mii != 3 {
		t.Fatalf("MII = %d, want 3 (ResMII on M)", mii)
	}
	sched, err := s.Schedule(l)
	if err != nil {
		t.Fatal(err)
	}
	if sched.II != 3 {
		t.Fatalf("II = %d, want 3", sched.II)
	}
	verify(t, s, l, sched)
	// The three loads must occupy distinct cycles mod 3.
	seen := map[int]bool{}
	for _, c := range sched.Issue {
		m := ((c % 3) + 3) % 3
		if seen[m] {
			t.Fatalf("two loads share a modulo slot: %v", sched.Issue)
		}
		seen[m] = true
	}
}

func TestRecMIIBindsOnRecurrence(t *testing.T) {
	// add depends on itself across iterations through r1 with latency 1 and
	// a chain of two more ops feeding back with total distance 3, omega 1:
	// RecMII = 3.
	s := New(pipeMDES(t, opt.LevelNone))
	l := &Loop{
		Body: &ir.Block{Ops: []*ir.Operation{
			op("ADD", []int{1}, []int{9}),
			op("ADD", []int{2}, []int{1}),
			op("ADD", []int{3}, []int{2}),
		}},
		Carried: []Dep{{From: 2, To: 0, MinDist: 1, Omega: 1}},
	}
	mii, err := s.MII(l)
	if err != nil {
		t.Fatal(err)
	}
	if mii != 3 {
		t.Fatalf("MII = %d, want 3 (RecMII over the cycle)", mii)
	}
	sched, err := s.Schedule(l)
	if err != nil {
		t.Fatal(err)
	}
	if sched.II != 3 {
		t.Fatalf("II = %d, want 3", sched.II)
	}
	verify(t, s, l, sched)
}

func TestMulPipelineModuloSelfCollision(t *testing.T) {
	// MUL uses MulA@0 and MulB@1: at II=1 two successive usages of the
	// same... different resources, so II=1 is feasible resource-wise for a
	// single MUL. Two MULs need II=2 on MulA.
	s := New(pipeMDES(t, opt.LevelNone))
	l := &Loop{Body: &ir.Block{Ops: []*ir.Operation{
		op("MUL", []int{1}, []int{0}),
		op("MUL", []int{2}, []int{0}),
	}}}
	sched, err := s.Schedule(l)
	if err != nil {
		t.Fatal(err)
	}
	if sched.II != 2 {
		t.Fatalf("II = %d, want 2", sched.II)
	}
	verify(t, s, l, sched)
}

func TestCarriedDependenceValidation(t *testing.T) {
	s := New(pipeMDES(t, opt.LevelNone))
	l := &Loop{
		Body:    &ir.Block{Ops: []*ir.Operation{op("ADD", []int{1}, []int{0})}},
		Carried: []Dep{{From: 0, To: 0, MinDist: 1, Omega: 0}},
	}
	if _, err := s.Schedule(l); err == nil {
		t.Fatalf("omega-0 carried dependence accepted")
	}
	l.Carried = []Dep{{From: 0, To: 5, MinDist: 1, Omega: 1}}
	if _, err := s.Schedule(l); err == nil {
		t.Fatalf("out-of-range dependence accepted")
	}
}

func TestRejectsBranchesAndUnknownOpcodes(t *testing.T) {
	s := New(pipeMDES(t, opt.LevelNone))
	br := &ir.Operation{Opcode: "ADD", Branch: true}
	if _, err := s.Schedule(&Loop{Body: &ir.Block{Ops: []*ir.Operation{br}}}); err == nil {
		t.Fatalf("branch accepted")
	}
	if _, err := s.Schedule(&Loop{Body: &ir.Block{Ops: []*ir.Operation{op("NOPE", nil, nil)}}}); err == nil {
		t.Fatalf("unknown opcode accepted")
	}
}

// A contended loop on a real machine: eviction must fire and the schedule
// must stay legal, at every optimization level, with identical IIs.
func TestSuperSPARCLoopAcrossLevels(t *testing.T) {
	body := func() *ir.Block {
		return &ir.Block{Ops: []*ir.Operation{
			op("LD", []int{1}, []int{0}),
			{Opcode: "ADD1", Dests: []int{2}, Srcs: []int{1}},
			{Opcode: "ADD1", Dests: []int{3}, Srcs: []int{2}},
			{Opcode: "SLL1", Dests: []int{4}, Srcs: []int{3}},
			{Opcode: "ST", Srcs: []int{4, 0}, Mem: ir.MemStore},
			{Opcode: "LD", Dests: []int{5}, Srcs: []int{0}, Mem: ir.MemLoad},
			{Opcode: "ADD2", Dests: []int{6}, Srcs: []int{5, 2}},
		}}
	}
	carried := []Dep{{From: 6, To: 1, MinDist: 1, Omega: 1}}

	m, err := machines.Load(machines.SuperSPARC)
	if err != nil {
		t.Fatal(err)
	}
	var refII = -1
	var checksNone, checksFull int64
	for _, form := range []lowlevel.Form{lowlevel.FormOR, lowlevel.FormAndOr} {
		for _, lvl := range []opt.Level{opt.LevelNone, opt.LevelFull} {
			ll := lowlevel.Compile(m, form)
			opt.Apply(ll, lvl, opt.Forward)
			s := New(ll)
			l := &Loop{Body: body(), Carried: carried}
			sched, err := s.Schedule(l)
			if err != nil {
				t.Fatalf("%v/%v: %v", form, lvl, err)
			}
			verify(t, s, l, sched)
			if refII < 0 {
				refII = sched.II
			} else if sched.II != refII {
				t.Fatalf("%v/%v: II %d != reference %d", form, lvl, sched.II, refII)
			}
			if form == lowlevel.FormOR && lvl == opt.LevelNone {
				checksNone = sched.Counters.ResourceChecks
			}
			if form == lowlevel.FormAndOr && lvl == opt.LevelFull {
				checksFull = sched.Counters.ResourceChecks
			}
		}
	}
	// The paper's point: advanced scheduling amplifies the benefit of the
	// optimized AND/OR representation.
	if checksFull >= checksNone {
		t.Fatalf("optimized AND/OR checks %d >= unoptimized OR checks %d", checksFull, checksNone)
	}
}

func TestEvictionHappensUnderPressure(t *testing.T) {
	// Many ALU ops with a tight recurrence force backtracking at small II.
	s := New(pipeMDES(t, opt.LevelNone))
	var ops []*ir.Operation
	ops = append(ops, op("ADD", []int{1}, []int{9}))
	ops = append(ops, op("ADD", []int{2}, []int{1}))
	ops = append(ops, op("LD", []int{3}, []int{0}))
	ops = append(ops, op("ADD", []int{4}, []int{3}))
	ops = append(ops, op("MUL", []int{5}, []int{4}))
	l := &Loop{
		Body:    &ir.Block{Ops: ops},
		Carried: []Dep{{From: 1, To: 0, MinDist: 1, Omega: 1}, {From: 4, To: 2, MinDist: 1, Omega: 2}},
	}
	sched, err := s.Schedule(l)
	if err != nil {
		t.Fatal(err)
	}
	verify(t, s, l, sched)
	if sched.Counters.Attempts == 0 {
		t.Fatalf("no attempts recorded")
	}
}

func TestModuloAttemptsExceedListScheduling(t *testing.T) {
	// The paper: IMS needs more scheduling attempts per op than acyclic
	// list scheduling — measured here on the same body.
	m, err := machines.Load(machines.SuperSPARC)
	if err != nil {
		t.Fatal(err)
	}
	ll := lowlevel.Compile(m, lowlevel.FormAndOr)
	s := New(ll)
	l := &Loop{
		Body: &ir.Block{Ops: []*ir.Operation{
			op("LD", []int{1}, []int{0}),
			{Opcode: "ADD1", Dests: []int{2}, Srcs: []int{1}},
			op("LD", []int{3}, []int{0}),
			{Opcode: "ADD1", Dests: []int{4}, Srcs: []int{3}},
			{Opcode: "ST", Srcs: []int{4, 0}, Mem: ir.MemStore},
		}},
		Carried: []Dep{{From: 4, To: 0, MinDist: 1, Omega: 1}},
	}
	sched, err := s.Schedule(l)
	if err != nil {
		t.Fatal(err)
	}
	verify(t, s, l, sched)
	perOp := float64(sched.Counters.Attempts) / float64(len(l.Body.Ops))
	if perOp <= 1.0 {
		t.Fatalf("modulo attempts/op = %.2f, expected > 1", perOp)
	}
}

// replayIterations re-executes a modulo schedule for several overlapped
// iterations against plain acyclic reservation tables and asserts no
// resource slot is ever double-booked — the property the modulo
// reservation map guarantees by construction, validated here
// independently.
func replayIterations(t *testing.T, m *lowlevel.MDES, l *Loop, sched *Schedule, iterations int) {
	t.Helper()
	plan, err := probeplan.Compile(m)
	if err != nil {
		t.Fatal(err)
	}
	ru := probeplan.NewProber(plan)
	var c stats.Counters
	for it := 0; it < iterations; it++ {
		base := it * sched.II
		for i, op := range l.Body.Ops {
			idx := m.OpIndex[op.Opcode]
			con := m.ConstraintFor(idx, op.Cascaded)
			sel, ok := ru.Check(con, base+sched.Issue[i], &c)
			if !ok {
				t.Fatalf("iteration %d op %d: resource conflict at cycle %d (II=%d)",
					it, i, base+sched.Issue[i], sched.II)
			}
			ru.Reserve(sel)
		}
	}
}

func TestModuloScheduleLegalAcrossIterations(t *testing.T) {
	mach, err := machines.Load(machines.SuperSPARC)
	if err != nil {
		t.Fatal(err)
	}
	ll := lowlevel.Compile(mach, lowlevel.FormAndOr)
	opt.Apply(ll, opt.LevelFull, opt.Forward)
	s := New(ll)
	loops := []*Loop{
		{
			Body: &ir.Block{Ops: []*ir.Operation{
				op("LD", []int{1}, []int{0}),
				{Opcode: "ADD1", Dests: []int{2}, Srcs: []int{1}},
				{Opcode: "SLL1", Dests: []int{3}, Srcs: []int{2}},
				{Opcode: "ST", Srcs: []int{3, 7}, Mem: ir.MemStore},
			}},
			Carried: []Dep{{From: 1, To: 1, MinDist: 1, Omega: 1}},
		},
		{
			Body: &ir.Block{Ops: []*ir.Operation{
				op("LD", []int{1}, []int{0}),
				op("LD", []int{2}, []int{0}),
				{Opcode: "ADD2", Dests: []int{3}, Srcs: []int{1, 2}},
				{Opcode: "ST", Srcs: []int{3, 7}, Mem: ir.MemStore},
			}},
			Carried: []Dep{{From: 2, To: 0, MinDist: 1, Omega: 1}},
		},
	}
	for li, l := range loops {
		sched, err := s.Schedule(l)
		if err != nil {
			t.Fatalf("loop %d: %v", li, err)
		}
		verify(t, s, l, sched)
		// Greedy selection in the replay may differ from the modulo map's
		// choices, but the FIRST iteration of a steady state must fit: the
		// modulo map proves a conflict-free assignment exists per slot.
		// Replay with enough iterations to cover the full overlap depth.
		depth := 1
		for _, c := range sched.Issue {
			if c/sched.II+1 > depth {
				depth = c/sched.II + 1
			}
		}
		replayIterations(t, ll, l, sched, depth+3)
	}
}

// A machine whose ResMII underestimates (multi-option trees are not
// charged) plus a recurrence pinning MII below resource feasibility: the
// II=2 attempt must fail through forced placements and evictions before
// II=3 succeeds — exercising the unscheduling machinery end to end.
func TestForcedPlacementAndEviction(t *testing.T) {
	src := `machine E {
	  resource ALU[2];
	  class alu { one_of ALU[0..1] @ 0; }
	  operation A class alu latency 1;
	}`
	mach, err := hmdes.Load("e", src)
	if err != nil {
		t.Fatal(err)
	}
	ll := lowlevel.Compile(mach, lowlevel.FormAndOr)
	s := New(ll)
	var ops []*ir.Operation
	for i := 0; i < 5; i++ {
		ops = append(ops, &ir.Operation{Opcode: "A", Dests: []int{10 + i}, Srcs: []int{i}})
	}
	l := &Loop{
		Body:    &ir.Block{Ops: ops},
		Carried: []Dep{{From: 0, To: 0, MinDist: 2, Omega: 1}},
	}
	mii, err := s.MII(l)
	if err != nil {
		t.Fatal(err)
	}
	if mii != 2 {
		t.Fatalf("MII = %d, want 2 (recurrence)", mii)
	}
	sched, err := s.Schedule(l)
	if err != nil {
		t.Fatal(err)
	}
	// 5 ops at 2 ALU slots per cycle need II >= 3.
	if sched.II != 3 {
		t.Fatalf("II = %d, want 3", sched.II)
	}
	if sched.TriedIIs != 2 {
		t.Fatalf("TriedIIs = %d, want 2 (II=2 fails)", sched.TriedIIs)
	}
	verify(t, s, l, sched)
	replayIterations(t, ll, l, sched, 5)
}

// Direct tests of the folded table's unscheduling primitives.
func TestModMapEvictionPrimitives(t *testing.T) {
	ll := pipeMDES(t, opt.LevelNone)
	con := ll.Constraints[ll.ClassIndex["load"]] // M@0
	m := probeplan.NewModulo(resctx.FrozenPlan(ll), 1)
	var c stats.Counters

	sel, ok := m.Check(con, 0, &c)
	if !ok {
		t.Fatalf("empty map check failed")
	}
	m.Reserve(sel, 7)
	// At II=1 every issue cycle folds onto slot 0: any second load collides.
	if _, ok := m.Check(con, 1, &c); ok {
		t.Fatalf("modulo collision missed")
	}
	// Evicting for a forced placement at issue 1 removes op 7.
	victims := m.Evict(con, 1)
	if len(victims) != 1 || victims[0] != 7 {
		t.Fatalf("victims = %v", victims)
	}
	if _, ok := m.Check(con, 1, &c); !ok {
		t.Fatalf("slots not freed by eviction")
	}
	// Release frees only the slots its operation still owns.
	sel2, _ := m.Check(con, 1, &c)
	m.Reserve(sel2, 9)
	m.Release(sel2, 3)
	if _, ok := m.Check(con, 1, &c); ok {
		t.Fatalf("release freed another operation's slot")
	}
	m.Release(sel2, 9)
	if _, ok := m.Check(con, 1, &c); !ok {
		t.Fatalf("release did not free slots")
	}
	m.Reserve(sel2, 9)
	m.Configure(1)
	if _, ok := m.Check(con, 0, &c); !ok {
		t.Fatalf("configure did not clear")
	}
}

// A modulo self-collision at II=1: an option using the same resource in
// two cycles folds onto one slot and must be rejected.
func TestModMapSelfCollision(t *testing.T) {
	src := `machine S {
	  resource Div;
	  class div { use Div @ 0, Div @ 1; }
	  operation D class div latency 2;
	}`
	mach, err := hmdes.Load("s", src)
	if err != nil {
		t.Fatal(err)
	}
	ll := lowlevel.Compile(mach, lowlevel.FormAndOr)
	m := probeplan.NewModulo(resctx.FrozenPlan(ll), 1)
	var c stats.Counters
	if _, ok := m.Check(ll.Constraints[0], 0, &c); ok {
		t.Fatalf("self-colliding option accepted at II=1")
	}
	m.Configure(2)
	if _, ok := m.Check(ll.Constraints[0], 0, &c); !ok {
		t.Fatalf("option rejected at II=2")
	}
	// The scheduler finds II=2 for one divide per iteration.
	s := New(ll)
	l := &Loop{Body: &ir.Block{Ops: []*ir.Operation{
		{Opcode: "D", Dests: []int{1}, Srcs: []int{0}},
	}}}
	sched, err := s.Schedule(l)
	if err != nil {
		t.Fatal(err)
	}
	if sched.II != 2 {
		t.Fatalf("II = %d, want 2 (unpipelined divide)", sched.II)
	}
}

// The observed path: a scheduler on a context borrowed from a pool that a
// metrics view observes schedules exactly as an unobserved one, and the
// registry's modulo phase and the pool's totals both equal the sum of the
// Schedules' counters.
func TestObservedModuloMatchesUnobserved(t *testing.T) {
	mach, err := machines.Load(machines.SuperSPARC)
	if err != nil {
		t.Fatal(err)
	}
	compile := func() *lowlevel.MDES {
		ll := lowlevel.Compile(mach, lowlevel.FormAndOr)
		opt.Apply(ll, opt.LevelFull, opt.Forward)
		return ll
	}
	plain := New(compile())
	ll := compile()
	pool, err := resctx.NewPool(ll, resctx.KindProbePlan)
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry(ll.ConstraintNames(), ll.ResourceNames)
	pool.Observe(&obs.Views{Metrics: reg, MDES: ll})
	cx := pool.Get()
	observed := NewWithContext(ll, cx)
	var sum stats.Counters
	for li, l := range moduloCorpus(t, machines.SuperSPARC)[:40] {
		want, err := plain.Schedule(l)
		if err != nil {
			t.Fatal(err)
		}
		got, err := observed.Schedule(l)
		if err != nil {
			t.Fatal(err)
		}
		if got.II != want.II || !slices.Equal(got.Issue, want.Issue) || got.Counters != want.Counters ||
			got.Evictions != want.Evictions || got.TriedIIs != want.TriedIIs {
			t.Fatalf("loop %d: observed %+v, unobserved %+v", li, got, want)
		}
		sum.Add(got.Counters)
	}
	cx.Release()
	p := reg.Snapshot().Phases[obs.PhaseModulo]
	phase := stats.Counters{Attempts: p.Attempts, OptionsChecked: p.OptionsChecked,
		ResourceChecks: p.ResourceChecks, Conflicts: p.Conflicts, Backtracks: p.Backtracks}
	if phase != sum || pool.Totals() != sum {
		t.Fatalf("modulo phase %+v, pool totals %+v, schedules %+v", phase, pool.Totals(), sum)
	}
}
