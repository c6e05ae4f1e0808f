package query

import (
	"sort"
	"testing"

	"mdes/internal/lowlevel"
	"mdes/internal/machines"
	"mdes/internal/obs"
	"mdes/internal/opt"
	"mdes/internal/resctx"
	"mdes/internal/stats"
)

func newQ(t *testing.T, name machines.Name, level opt.Level) *Q {
	t.Helper()
	m := machines.MustLoad(name)
	ll := lowlevel.Compile(m, lowlevel.FormAndOr)
	opt.Apply(ll, level, opt.Forward)
	return New(ll)
}

func TestLatencyAndFlowDistance(t *testing.T) {
	q := newQ(t, machines.PA7100, opt.LevelNone)
	if lat, err := q.Latency("LD"); err != nil || lat != 2 {
		t.Fatalf("Latency(LD) = %d, %v", lat, err)
	}
	if _, err := q.Latency("NOPE"); err == nil {
		t.Fatalf("unknown opcode accepted")
	}
	// FMUL->FADD has the forwarding path: distance 1 instead of 2.
	if d, err := q.FlowDistance("FMUL", "FADD"); err != nil || d != 1 {
		t.Fatalf("FlowDistance(FMUL,FADD) = %d, %v", d, err)
	}
	if d, _ := q.FlowDistance("FADD", "FMUL"); d != 2 {
		t.Fatalf("FlowDistance(FADD,FMUL) = %d", d)
	}
	if _, err := q.FlowDistance("NOPE", "FADD"); err == nil {
		t.Fatalf("unknown producer accepted")
	}
	if _, err := q.FlowDistance("FADD", "NOPE"); err == nil {
		t.Fatalf("unknown consumer accepted")
	}
}

func TestCanIssueTogether(t *testing.T) {
	q := newQ(t, machines.PA7100, opt.LevelNone)
	// PA7100 pairs one integer op with one FP op.
	if ok, err := q.CanIssueTogether("ADD", "FADD"); err != nil || !ok {
		t.Fatalf("ADD+FADD = %v, %v", ok, err)
	}
	// Two integer ops share the single integer pipe.
	if ok, _ := q.CanIssueTogether("ADD", "SUB"); ok {
		t.Fatalf("two integer ops paired on PA7100")
	}
	// A single op always fits.
	if ok, _ := q.CanIssueTogether("BR"); !ok {
		t.Fatalf("lone branch rejected")
	}
	if _, err := q.CanIssueTogether("NOPE"); err == nil {
		t.Fatalf("unknown opcode accepted")
	}
	// Repeated queries are independent (state restored).
	if ok, _ := q.CanIssueTogether("ADD", "FADD"); !ok {
		t.Fatalf("query state leaked")
	}
}

func TestCanIssueTogetherSuperSPARC(t *testing.T) {
	q := newQ(t, machines.SuperSPARC, opt.LevelFull)
	// Three one-source IALU ops need 3 decoders, 3 read ports, but only 2
	// IALUs exist.
	if ok, _ := q.CanIssueTogether("ADD1", "SUB1", "ADD1"); ok {
		t.Fatalf("three IALU ops issued with two IALUs")
	}
	// Three register-writing ops exceed the two write ports, so a load
	// cannot make the third slot either.
	if ok, _ := q.CanIssueTogether("ADD1", "SUB1", "LD"); ok {
		t.Fatalf("three register writers issued with two write ports")
	}
	// A store writes no register: 2 IALU + store triple-issues.
	if ok, _ := q.CanIssueTogether("ADD1", "SUB1", "ST"); !ok {
		t.Fatalf("2 IALU + store should triple-issue")
	}
}

func TestMaxPerCycle(t *testing.T) {
	q := newQ(t, machines.SuperSPARC, opt.LevelNone)
	if n, err := q.MaxPerCycle("LD", 8); err != nil || n != 1 {
		t.Fatalf("MaxPerCycle(LD) = %d, %v (one memory unit)", n, err)
	}
	if n, _ := q.MaxPerCycle("ADD1", 8); n != 2 {
		t.Fatalf("MaxPerCycle(ADD1) = %d (two IALUs)", n)
	}
	if n, _ := q.MaxPerCycle("BR", 8); n != 1 {
		t.Fatalf("MaxPerCycle(BR) = %d", n)
	}
	if _, err := q.MaxPerCycle("NOPE", 8); err == nil {
		t.Fatalf("unknown opcode accepted")
	}
}

func TestMinIssueDistance(t *testing.T) {
	q := newQ(t, machines.SuperSPARC, opt.LevelNone)
	// Two loads: the single memory unit forces distance 1.
	if d, err := q.MinIssueDistance("LD", "LD", 8); err != nil || d != 1 {
		t.Fatalf("MinIssueDistance(LD,LD) = %d, %v", d, err)
	}
	// Two IALU ops can co-issue: distance 0.
	if d, _ := q.MinIssueDistance("ADD1", "SUB1", 8); d != 0 {
		t.Fatalf("MinIssueDistance(ADD1,SUB1) = %d", d)
	}
	// Branches are alone on the last decoder: distance 1.
	if d, _ := q.MinIssueDistance("BR", "BR", 8); d != 1 {
		t.Fatalf("MinIssueDistance(BR,BR) = %d", d)
	}
	if _, err := q.MinIssueDistance("NOPE", "LD", 8); err == nil {
		t.Fatalf("unknown opcode accepted")
	}
}

func TestMinIssueDistancePentiumNonPairable(t *testing.T) {
	q := newQ(t, machines.Pentium, opt.LevelFull)
	// A non-pairable MUL occupies the whole issue cycle: nothing else that
	// cycle, so the next MUL is 1 away and a pairable ADD is 1 away too.
	if d, _ := q.MinIssueDistance("MUL", "ADD", 8); d != 1 {
		t.Fatalf("MUL->ADD distance = %d", d)
	}
	if d, _ := q.MinIssueDistance("ADD", "SUB", 8); d != 0 {
		t.Fatalf("ADD->SUB distance = %d (should pair)", d)
	}
}

func TestIssueWidth(t *testing.T) {
	cases := []struct {
		machine machines.Name
		want    int
	}{
		{machines.PA7100, 2},     // int + FP
		{machines.Pentium, 2},    // U + V
		{machines.SuperSPARC, 3}, // 2 IALU + 1 load (3 decoders)
		{machines.K5, 4},         // four decode positions
	}
	for _, c := range cases {
		q := newQ(t, c.machine, opt.LevelFull)
		if got := q.IssueWidth(8); got != c.want {
			t.Errorf("%s IssueWidth = %d, want %d", c.machine, got, c.want)
		}
	}
}

func TestResourceUse(t *testing.T) {
	q := newQ(t, machines.SuperSPARC, opt.LevelNone)
	use, err := q.ResourceUse("LD")
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for n := range use {
		names = append(names, n)
	}
	sort.Strings(names)
	// Greedy first choice: Decoder[0] at -1, M at 0, WrPt[0] at 1.
	want := []string{"Decoder[0]", "M", "WrPt[0]"}
	if len(names) != len(want) {
		t.Fatalf("ResourceUse = %v", use)
	}
	for i := range want {
		if names[i] != want[i] {
			t.Fatalf("ResourceUse = %v, want resources %v", use, want)
		}
	}
	if use["M"][0] != 0 || use["Decoder[0]"][0] != -1 {
		t.Fatalf("cycles wrong: %v", use)
	}
	if _, err := q.ResourceUse("NOPE"); err == nil {
		t.Fatalf("unknown opcode accepted")
	}
}

func TestMustLatency(t *testing.T) {
	q := newQ(t, machines.PA7100, opt.LevelNone)
	if q.MustLatency("LD") != 2 {
		t.Fatalf("MustLatency(LD) = %d", q.MustLatency("LD"))
	}
	defer func() {
		if recover() == nil {
			t.Fatalf("MustLatency did not panic on unknown opcode")
		}
	}()
	q.MustLatency("NOPE")
}

// A query starts from an idle machine and leaves one behind, on either
// backend: afterwards the probe plan holds no reserved slot, and every
// operation fits at cycle 0 again — which on the automaton also means
// its cursor is back at cycle 0, since a probe behind it panics.
func TestQueriesLeaveNoReservation(t *testing.T) {
	for _, name := range []machines.Name{machines.SuperSPARC, machines.K5} {
		ll := lowlevel.Compile(machines.MustLoad(name), lowlevel.FormAndOr)
		opt.Apply(ll, opt.LevelFull, opt.Forward)
		a, b := ll.Operations[0].Name, ll.Operations[1].Name
		for _, kind := range resctx.Kinds() {
			pool, err := resctx.NewPool(ll, kind)
			if err != nil {
				t.Fatal(err)
			}
			cx := pool.Get()
			q := NewWithContext(ll, cx)
			for method, call := range map[string]func(){
				"CanIssueTogether": func() { q.CanIssueTogether(a, b, a, b) },
				"MaxPerCycle":      func() { q.MaxPerCycle(a, 8) },
				"MinIssueDistance": func() { q.MinIssueDistance(a, a, 32) },
				"IssueWidth":       func() { q.IssueWidth(8) },
				"ResourceUse":      func() { q.ResourceUse(a) },
			} {
				call()
				if cx.PP != nil && len(cx.PP.AppendReservedSlots(nil)) != 0 {
					t.Fatalf("%s/%s: %s left slots %v", name, kind, method, cx.PP.AppendReservedSlots(nil))
				}
				var c stats.Counters
				for op := range ll.Operations {
					if _, ok, _ := cx.Probe(obs.PhaseQuery, -1, "", ll.ConstraintFor(op, false), 0, &c); !ok {
						t.Fatalf("%s/%s: after %s, %s no longer fits at cycle 0", name, kind, method, ll.Operations[op].Name)
					}
				}
			}
			q.Close()
		}
	}
}
