package ir

import (
	"fmt"
	"strings"
	"testing"
)

// dist is a Timing with one flow distance for every producer.
type dist int

func (d dist) FlowDist(int, int) int { return int(d) }

// build graphs b on a fresh Builder.
func build(t *testing.T, b *Block, d dist) *Graph {
	t.Helper()
	g, err := new(Builder).Build(b, d)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func op(opcode string, dests, srcs []int) *Operation {
	return &Operation{Opcode: opcode, Dests: dests, Srcs: srcs}
}

func TestFlowDependence(t *testing.T) {
	b := &Block{Ops: []*Operation{
		op("ADD", []int{1}, []int{0}),
		op("ADD", []int{2}, []int{1}),
	}}
	g := build(t, b, 3)
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(g.Succs[0]) != 1 {
		t.Fatalf("edges from op0 = %v", g.Succs[0])
	}
	e := g.Succs[0][0]
	if e.Kind != DepFlow || e.MinDist != 3 || e.To != 1 {
		t.Fatalf("edge = %+v", e)
	}
	if len(g.Preds[1]) != 1 {
		t.Fatalf("preds of op1 = %v", g.Preds[1])
	}
}

// opcodeTiming keys flow distances by the producer's opcode.
type opcodeTiming map[string]int

func (t opcodeTiming) FlowDist(producer, _ *Operation) int { return t[producer.Opcode] }

// BuildGraphTiming serves callers that hold operations, not positions.
func TestBuildGraphTimingByOperation(t *testing.T) {
	b := &Block{Ops: []*Operation{
		op("MUL", []int{1}, []int{0}),
		op("ADD", []int{2}, []int{1}),
		op("ADD", []int{3}, []int{2}),
	}}
	g := BuildGraphTiming(b, opcodeTiming{"MUL": 3, "ADD": 1})
	if g.Succs[0][0].MinDist != 3 || g.Succs[1][0].MinDist != 1 {
		t.Fatalf("edges = %v", g.Succs)
	}
}

func TestCascadedFlowDistanceZero(t *testing.T) {
	b := &Block{Ops: []*Operation{
		op("ADD", []int{1}, []int{0}),
		{Opcode: "ADD", Dests: []int{2}, Srcs: []int{1}, Cascaded: true},
	}}
	g := build(t, b, 1)
	if g.Succs[0][0].MinDist != 0 {
		t.Fatalf("cascaded consumer distance = %d, want 0", g.Succs[0][0].MinDist)
	}
}

func TestAntiAndOutputDependences(t *testing.T) {
	b := &Block{Ops: []*Operation{
		op("ADD", []int{1}, []int{0}), // writes r1
		op("ADD", []int{2}, []int{1}), // reads r1
		op("ADD", []int{1}, []int{3}), // rewrites r1: anti from op1, output from op0
	}}
	g := build(t, b, 1)
	var anti, output bool
	for _, e := range g.Preds[2] {
		if e.Kind == DepAnti && e.From == 1 && e.MinDist == 0 {
			anti = true
		}
		if e.Kind == DepOutput && e.From == 0 && e.MinDist == 1 {
			output = true
		}
	}
	if !anti || !output {
		t.Fatalf("preds of op2 = %v", g.Preds[2])
	}
}

func TestMemoryOrdering(t *testing.T) {
	b := &Block{Ops: []*Operation{
		{Opcode: "LD", Dests: []int{1}, Srcs: []int{0}, Mem: MemLoad},
		{Opcode: "ST", Srcs: []int{1, 2}, Mem: MemStore},
		{Opcode: "LD", Dests: []int{3}, Srcs: []int{0}, Mem: MemLoad},
		{Opcode: "ST", Srcs: []int{3, 4}, Mem: MemStore},
	}}
	g := build(t, b, 1)
	find := func(from, to int, kind DepKind) *Edge {
		for _, e := range g.Succs[from] {
			if e.To == to && e.Kind == kind {
				return &e
			}
		}
		return nil
	}
	if e := find(0, 1, DepMem); e == nil || e.MinDist != 0 {
		t.Fatalf("load->store edge missing/wrong: %v", g.Succs[0])
	}
	if e := find(1, 2, DepMem); e == nil || e.MinDist != 1 {
		t.Fatalf("store->load edge missing/wrong: %v", g.Succs[1])
	}
	if e := find(1, 3, DepMem); e == nil || e.MinDist != 1 {
		t.Fatalf("store->store edge missing: %v", g.Succs[1])
	}
}

func TestBranchControlEdges(t *testing.T) {
	b := &Block{Ops: []*Operation{
		op("ADD", []int{1}, []int{0}),
		op("ADD", []int{2}, []int{0}),
		{Opcode: "BR", Branch: true},
	}}
	g := build(t, b, 1)
	if len(g.Preds[2]) != 2 {
		t.Fatalf("branch preds = %v", g.Preds[2])
	}
	for _, e := range g.Preds[2] {
		if e.Kind != DepControl || e.MinDist != 0 {
			t.Fatalf("control edge = %+v", e)
		}
	}
}

func TestIndependentReadersShareNoEdge(t *testing.T) {
	b := &Block{Ops: []*Operation{
		op("ADD", []int{1}, []int{0}),
		op("ADD", []int{2}, []int{0}),
	}}
	g := build(t, b, 1)
	if len(g.Succs[0]) != 0 {
		t.Fatalf("independent readers got edges: %v", g.Succs[0])
	}
}

// A Builder reused across blocks yields exactly the graph a fresh one
// does: stale per-register entries from earlier blocks never leak.
func TestBuilderReuseMatchesFresh(t *testing.T) {
	blocks := []*Block{
		{Ops: []*Operation{op("A", []int{5}, []int{1}), op("B", []int{1}, []int{5}), op("C", []int{5}, []int{1})}},
		{Ops: []*Operation{op("A", []int{2}, []int{3})}},
		{Ops: []*Operation{op("B", []int{1}, []int{5}), op("C", []int{5}, []int{1}), {Opcode: "BR", Branch: true}}},
	}
	var reused Builder
	for round := 0; round < 2; round++ {
		for bi, b := range blocks {
			g, err := reused.Build(b, dist(2))
			if err != nil {
				t.Fatal(err)
			}
			want := build(t, b, 2)
			if fmt.Sprint(g.Succs, g.Preds) != fmt.Sprint(want.Succs, want.Preds) {
				t.Fatalf("round %d block %d: reused %v, fresh %v", round, bi, g.Succs, want.Succs)
			}
		}
	}
}

// Registers outside [0, MaxRegister) are refused before any
// per-register table is sized by them, with the op and the register named.
func TestBuildRefusesOutOfRangeRegisters(t *testing.T) {
	for _, r := range []int{-1, MaxRegister, 1 << 40} {
		for _, o := range []*Operation{op("ADD", []int{r}, []int{0}), op("ADD", []int{1}, []int{0, r})} {
			b := &Block{Ops: []*Operation{op("ADD", []int{1}, []int{0}), o}}
			var bl Builder
			_, err := bl.Build(b, dist(1))
			if err == nil {
				t.Fatalf("register %d accepted", r)
			}
			if msg := err.Error(); !strings.Contains(msg, "op 1") || !strings.Contains(msg, fmt.Sprint(r)) {
				t.Fatalf("register %d: error %q does not name the op and register", r, msg)
			}
			if len(bl.lastWriter) != 0 {
				t.Fatalf("register %d: builder sized its tables to %d", r, len(bl.lastWriter))
			}
		}
	}
}

func TestCheckSchedule(t *testing.T) {
	b := &Block{Ops: []*Operation{
		op("ADD", []int{1}, []int{0}),
		op("ADD", []int{2}, []int{1}),
	}}
	g := build(t, b, 1)
	if err := g.CheckSchedule([]int{0, 1}); err != nil {
		t.Fatalf("legal schedule rejected: %v", err)
	}
	if err := g.CheckSchedule([]int{0, 0}); err == nil {
		t.Fatalf("illegal schedule accepted")
	}
	if err := g.CheckSchedule([]int{0}); err == nil {
		t.Fatalf("short schedule accepted")
	}
}

func TestRenumber(t *testing.T) {
	b := &Block{Ops: []*Operation{op("A", nil, nil), op("B", nil, nil)}}
	b.Ops[0].ID = 99
	b.Renumber()
	if b.Ops[0].ID != 0 || b.Ops[1].ID != 1 {
		t.Fatalf("IDs = %d, %d", b.Ops[0].ID, b.Ops[1].ID)
	}
}

func TestStringers(t *testing.T) {
	o := op("ADD", []int{1}, []int{2, 3})
	if o.String() == "" {
		t.Fatalf("empty op string")
	}
	kinds := []DepKind{DepFlow, DepAnti, DepOutput, DepMem, DepControl, DepKind(9)}
	want := []string{"flow", "anti", "output", "mem", "control", "?"}
	for i, k := range kinds {
		if k.String() != want[i] {
			t.Fatalf("DepKind(%d).String() = %q", k, k.String())
		}
	}
}
