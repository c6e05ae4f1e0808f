package mdes

import (
	"strings"
	"testing"
)

func TestBuiltins(t *testing.T) {
	names := Builtins()
	if len(names) != 4 {
		t.Fatalf("Builtins = %v", names)
	}
	for _, n := range names {
		m, err := Builtin(n)
		if err != nil {
			t.Fatalf("%s: %v", n, err)
		}
		if len(m.OpNames) == 0 {
			t.Fatalf("%s has no operations", n)
		}
		src, err := BuiltinSource(n)
		if err != nil || !strings.Contains(src, "machine") {
			t.Fatalf("%s source: %v", n, err)
		}
	}
}

func TestEndToEndPublicAPI(t *testing.T) {
	machine, err := Builtin(SuperSPARC)
	if err != nil {
		t.Fatal(err)
	}
	compiled := Compile(machine, FormAndOr)
	reports := Optimize(compiled, LevelFull)
	if len(reports) == 0 {
		t.Fatalf("no optimization reports")
	}
	s := NewScheduler(compiled)
	s.OptionsHist = NewHistogram()
	block := &Block{Ops: []*IROperation{
		{Opcode: "LD", Dests: []int{1}, Srcs: []int{0}},
		{Opcode: "ADD1", Dests: []int{2}, Srcs: []int{1}},
		{Opcode: "ST", Srcs: []int{2, 3}},
	}}
	res, err := s.ScheduleBlock(block)
	if err != nil {
		t.Fatal(err)
	}
	if res.Length == 0 || res.Counters.Attempts < 3 {
		t.Fatalf("result = %+v", res)
	}
	if s.OptionsHist.Total() != res.Counters.Attempts {
		t.Fatalf("histogram mismatch")
	}
}

func TestLoadCustomMachine(t *testing.T) {
	src := `machine Tiny {
	  resource P[2];
	  class op { one_of P[0..1] @ 0; }
	  operation NOP class op latency 1;
	}`
	m, err := Load("tiny.mdes", src)
	if err != nil {
		t.Fatal(err)
	}
	c := Compile(m, FormOR)
	if c.Size().Total() == 0 {
		t.Fatalf("empty compiled description")
	}
	if _, err := Load("bad.mdes", "machine {"); err == nil {
		t.Fatalf("bad source accepted")
	}
}

func TestOptimizeForBackward(t *testing.T) {
	machine, _ := Builtin(K5)
	c := Compile(machine, FormAndOr)
	if reports := OptimizeFor(c, LevelFull, Backward); len(reports) == 0 {
		t.Fatalf("no reports")
	}
}

func TestRenderClass(t *testing.T) {
	machine, _ := Builtin(SuperSPARC)
	out, ok := RenderClass(machine, "load", false)
	if !ok || !strings.Contains(out, "AND of") {
		t.Fatalf("render: %v\n%s", ok, out)
	}
	out, ok = RenderClass(machine, "load", true)
	if !ok || !strings.Contains(out, "Option 6:") {
		t.Fatalf("expanded render: %v\n%s", ok, out)
	}
	if _, ok := RenderClass(machine, "nope", false); ok {
		t.Fatalf("unknown class rendered")
	}
}

func TestCompiledEncodeDecode(t *testing.T) {
	machine, _ := Builtin(PA7100)
	c := Compile(machine, FormAndOr)
	Optimize(c, LevelFull)
	buf, err := EncodeArena(c)
	if err != nil {
		t.Fatal(err)
	}
	a, err := OpenArena(buf)
	if err != nil {
		t.Fatal(err)
	}
	back := a.MDES()
	if back.Size() != c.Size() {
		t.Fatalf("size changed after round trip")
	}
	// The decoded description drives the scheduler identically.
	block := &Block{Ops: []*IROperation{
		{Opcode: "LD", Dests: []int{1}, Srcs: []int{0}, Mem: MemLoad},
		{Opcode: "ADD", Dests: []int{2}, Srcs: []int{1}},
	}}
	r1, err := NewScheduler(c).ScheduleBlock(block)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := NewScheduler(back).ScheduleBlock(block)
	if err != nil {
		t.Fatal(err)
	}
	for i := range r1.Issue {
		if r1.Issue[i] != r2.Issue[i] {
			t.Fatalf("decoded MDES schedules differently: %v vs %v", r1.Issue, r2.Issue)
		}
	}
}

func TestPublicQueryAPI(t *testing.T) {
	machine, _ := Builtin(SuperSPARC)
	c := Compile(machine, FormAndOr)
	Optimize(c, LevelFull)
	q := NewQuery(c)
	ok, err := q.CanIssueTogether("ADD1", "LD")
	if err != nil || !ok {
		t.Fatalf("CanIssueTogether = %v, %v", ok, err)
	}
	if w := q.IssueWidth(8); w != 3 {
		t.Fatalf("IssueWidth = %d", w)
	}
}
