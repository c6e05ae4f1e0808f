package sched

import (
	"math/rand"
	"testing"

	"mdes/internal/hmdes"
	"mdes/internal/ir"
	"mdes/internal/lowlevel"
	"mdes/internal/opt"
	"mdes/internal/stats"
)

// A two-issue machine with one memory unit and two ALUs.
const twoIssueSrc = `
machine TwoIssue {
    resource Issue[2];
    resource ALU[2];
    resource M;
    resource Br;

    class alu {
        one_of Issue[0..1] @ 0;
        one_of ALU[0..1] @ 0;
    }
    class load {
        one_of Issue[0..1] @ 0;
        use M @ 0;
    }
    class store {
        one_of Issue[0..1] @ 0;
        use M @ 0;
    }
    class branch {
        use Issue[1] @ 0;
        use Br @ 0;
    }
    operation ADD class alu latency 1;
    operation MUL class alu latency 3;
    operation LD  class load latency 2;
    operation ST  class store latency 1;
    operation BR  class branch latency 1;
}
`

func newSched(t *testing.T, form lowlevel.Form, level opt.Level) *Scheduler {
	t.Helper()
	m, err := hmdes.Load("two", twoIssueSrc)
	if err != nil {
		t.Fatal(err)
	}
	ll := lowlevel.Compile(m, form)
	opt.Apply(ll, level, opt.Forward)
	s := New(ll)
	s.SelfCheck = true
	return s
}

func op(opcode string, dests, srcs []int) *ir.Operation {
	o := &ir.Operation{Opcode: opcode, Dests: dests, Srcs: srcs}
	switch opcode {
	case "LD":
		o.Mem = ir.MemLoad
	case "ST":
		o.Mem = ir.MemStore
	case "BR":
		o.Branch = true
	}
	return o
}

func TestEmptyBlock(t *testing.T) {
	s := newSched(t, lowlevel.FormAndOr, opt.LevelNone)
	r, err := s.ScheduleBlock(&ir.Block{})
	if err != nil || r.Length != 0 {
		t.Fatalf("empty block: %v %+v", err, r)
	}
}

func TestIndependentOpsPack(t *testing.T) {
	s := newSched(t, lowlevel.FormAndOr, opt.LevelNone)
	// Four independent ALU ops on a 2-issue machine: 2 cycles.
	b := &ir.Block{Ops: []*ir.Operation{
		op("ADD", []int{1}, []int{0}),
		op("ADD", []int{2}, []int{0}),
		op("ADD", []int{3}, []int{0}),
		op("ADD", []int{4}, []int{0}),
	}}
	r, err := s.ScheduleBlock(b)
	if err != nil {
		t.Fatal(err)
	}
	if r.Length != 2 {
		t.Fatalf("length = %d, want 2 (issue width)", r.Length)
	}
	if r.Issue[0] != 0 || r.Issue[1] != 0 || r.Issue[2] != 1 || r.Issue[3] != 1 {
		t.Fatalf("issues = %v", r.Issue)
	}
}

func TestLatencyRespected(t *testing.T) {
	s := newSched(t, lowlevel.FormAndOr, opt.LevelNone)
	b := &ir.Block{Ops: []*ir.Operation{
		op("MUL", []int{1}, []int{0}), // latency 3
		op("ADD", []int{2}, []int{1}),
	}}
	r, err := s.ScheduleBlock(b)
	if err != nil {
		t.Fatal(err)
	}
	if r.Issue[1]-r.Issue[0] < 3 {
		t.Fatalf("flow latency violated: %v", r.Issue)
	}
}

func TestCriticalPathPriority(t *testing.T) {
	s := newSched(t, lowlevel.FormAndOr, opt.LevelNone)
	// A long MUL chain competes with independent ADDs; the chain head must
	// win the first slot.
	b := &ir.Block{Ops: []*ir.Operation{
		op("ADD", []int{10}, []int{0}),
		op("MUL", []int{1}, []int{0}),
		op("MUL", []int{2}, []int{1}),
		op("MUL", []int{3}, []int{2}),
	}}
	r, err := s.ScheduleBlock(b)
	if err != nil {
		t.Fatal(err)
	}
	if r.Issue[1] != 0 {
		t.Fatalf("chain head not issued first: %v", r.Issue)
	}
	// ADD shares cycle 0 (second issue slot).
	if r.Issue[0] != 0 {
		t.Fatalf("independent ADD should fill the second slot: %v", r.Issue)
	}
}

func TestStructuralHazardSerializes(t *testing.T) {
	s := newSched(t, lowlevel.FormAndOr, opt.LevelNone)
	// Two independent loads, one memory unit.
	b := &ir.Block{Ops: []*ir.Operation{
		op("LD", []int{1}, []int{0}),
		op("LD", []int{2}, []int{0}),
	}}
	r, err := s.ScheduleBlock(b)
	if err != nil {
		t.Fatal(err)
	}
	if r.Issue[0] == r.Issue[1] {
		t.Fatalf("two loads share the single M unit: %v", r.Issue)
	}
	// The failed attempt must be visible in the counters.
	if r.Counters.Attempts != 3 {
		t.Fatalf("attempts = %d, want 3 (two successes + one failure)", r.Counters.Attempts)
	}
}

func TestBranchLast(t *testing.T) {
	s := newSched(t, lowlevel.FormAndOr, opt.LevelNone)
	b := &ir.Block{Ops: []*ir.Operation{
		op("ADD", []int{1}, []int{0}),
		op("LD", []int{2}, []int{0}),
		op("BR", nil, nil),
	}}
	r, err := s.ScheduleBlock(b)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if r.Issue[2] < r.Issue[i] {
			t.Fatalf("branch issued before op %d: %v", i, r.Issue)
		}
	}
}

func TestUnknownOpcode(t *testing.T) {
	s := newSched(t, lowlevel.FormAndOr, opt.LevelNone)
	defer func() { recover() }()
	b := &ir.Block{Ops: []*ir.Operation{op("NOPE", nil, nil)}}
	if _, err := s.ScheduleBlock(b); err == nil {
		t.Fatalf("unknown opcode scheduled")
	}
}

func TestHistogramCollected(t *testing.T) {
	s := newSched(t, lowlevel.FormAndOr, opt.LevelNone)
	s.OptionsHist = stats.NewHistogram()
	b := &ir.Block{Ops: []*ir.Operation{
		op("ADD", []int{1}, []int{0}),
		op("ADD", []int{2}, []int{0}),
	}}
	r, err := s.ScheduleBlock(b)
	if err != nil {
		t.Fatal(err)
	}
	if s.OptionsHist.Total() != r.Counters.Attempts {
		t.Fatalf("histogram samples %d != attempts %d", s.OptionsHist.Total(), r.Counters.Attempts)
	}
}

func TestScheduleAllAccumulates(t *testing.T) {
	s := newSched(t, lowlevel.FormAndOr, opt.LevelNone)
	blocks := []*ir.Block{
		{Ops: []*ir.Operation{op("ADD", []int{1}, []int{0})}},
		{Ops: []*ir.Operation{op("LD", []int{1}, []int{0})}},
	}
	results, total, err := s.ScheduleAll(blocks)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 2 {
		t.Fatalf("results = %d", len(results))
	}
	if total.Attempts != results[0].Counters.Attempts+results[1].Counters.Attempts {
		t.Fatalf("totals wrong")
	}
}

// randomBlock builds a random but well-formed block.
func randomBlock(r *rand.Rand, n int) *ir.Block {
	b := &ir.Block{}
	nextReg := 8
	opcodes := []string{"ADD", "ADD", "MUL", "LD", "ST"}
	for i := 0; i < n; i++ {
		oc := opcodes[r.Intn(len(opcodes))]
		var o *ir.Operation
		src := r.Intn(nextReg)
		switch oc {
		case "ST":
			o = op("ST", nil, []int{src, r.Intn(nextReg)})
		default:
			o = op(oc, []int{nextReg}, []int{src})
			nextReg++
		}
		b.Ops = append(b.Ops, o)
	}
	b.Ops = append(b.Ops, op("BR", nil, nil))
	return b
}

// The paper's invariant at scheduler level: identical schedules across both
// representations and every optimization level.
func TestIdenticalSchedulesAcrossConfigs(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	for trial := 0; trial < 10; trial++ {
		b := randomBlock(r, 25)
		var ref []int
		for _, form := range []lowlevel.Form{lowlevel.FormOR, lowlevel.FormAndOr} {
			for lvl := opt.LevelNone; lvl <= opt.LevelFull; lvl++ {
				s := newSched(t, form, lvl)
				// Deep-copy the block because scheduling renumbers IDs only.
				res, err := s.ScheduleBlock(b)
				if err != nil {
					t.Fatalf("form %v level %v: %v", form, lvl, err)
				}
				if ref == nil {
					ref = res.Issue
					continue
				}
				for i := range ref {
					if res.Issue[i] != ref[i] {
						t.Fatalf("trial %d form %v level %v: issue[%d]=%d, ref %d",
							trial, form, lvl, i, res.Issue[i], ref[i])
					}
				}
			}
		}
	}
}

// Attempts are representation-independent (Table 5's "Sched. Attempts"
// column is shared across both representations).
func TestAttemptsIdenticalAcrossForms(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	b := randomBlock(r, 40)
	var attempts []int64
	for _, form := range []lowlevel.Form{lowlevel.FormOR, lowlevel.FormAndOr} {
		s := newSched(t, form, opt.LevelNone)
		res, err := s.ScheduleBlock(b)
		if err != nil {
			t.Fatal(err)
		}
		attempts = append(attempts, res.Counters.Attempts)
	}
	if attempts[0] != attempts[1] {
		t.Fatalf("attempts differ: %v", attempts)
	}
}

func TestCascadedClassUsed(t *testing.T) {
	src := `machine C {
	  resource IALU[2];
	  resource Issue[2];
	  class ialu { one_of Issue[0..1] @ 0; one_of IALU[0..1] @ 0; }
	  class ialu_casc { one_of Issue[0..1] @ 0; use IALU[1] @ 0; }
	  operation ADD class ialu cascaded ialu_casc latency 1;
	}`
	m, err := hmdes.Load("c", src)
	if err != nil {
		t.Fatal(err)
	}
	ll := lowlevel.Compile(m, lowlevel.FormAndOr)
	s := New(ll)
	s.SelfCheck = true
	// op1 produces, op2 is a cascaded consumer: both can issue in cycle 0.
	b := &ir.Block{Ops: []*ir.Operation{
		{Opcode: "ADD", Dests: []int{1}, Srcs: []int{0}},
		{Opcode: "ADD", Dests: []int{2}, Srcs: []int{1}, Cascaded: true},
	}}
	r, err := s.ScheduleBlock(b)
	if err != nil {
		t.Fatal(err)
	}
	if r.Issue[0] != 0 || r.Issue[1] != 0 {
		t.Fatalf("cascaded pair not same-cycle: %v", r.Issue)
	}
}

func TestAccessorsAndTimingAdapters(t *testing.T) {
	s := newSched(t, lowlevel.FormAndOr, opt.LevelNone)
	m := s.MDES()
	if m.MachineName != "TwoIssue" {
		t.Fatalf("MDES() = %q", m.MachineName)
	}
	// The one timing adapter resolves block positions through hoisted
	// operation indices: MUL (latency 3) feeding ADD (latency 1).
	tm := lowlevel.BlockTiming{M: m, OpIdxs: []int{m.OpIndex["MUL"], m.OpIndex["ADD"]}}
	if tm.FlowDist(0, 1) != 3 || tm.FlowDist(1, 0) != 1 || tm.FlowDist(0, 0) != 3 {
		t.Fatalf("FlowDist = %d, %d, %d", tm.FlowDist(0, 1), tm.FlowDist(1, 0), tm.FlowDist(0, 0))
	}
}
