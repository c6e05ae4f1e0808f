package obs

import (
	"testing"

	"mdes/internal/lowlevel"
	"mdes/internal/stats"
)

// toyMDES is a description with one single-option, single-tree
// constraint per class name, over the given resources.
func toyMDES(classes, resources []string) *lowlevel.MDES {
	m := &lowlevel.MDES{MachineName: "toy", NumResources: len(resources), ResourceNames: resources}
	for i, name := range classes {
		o := &lowlevel.Option{ID: i, Src: name + "[0]", Usages: []lowlevel.Usage{{Res: 0}}}
		tr := &lowlevel.Tree{ID: i, Name: name, Options: []*lowlevel.Option{o}}
		m.Options = append(m.Options, o)
		m.Trees = append(m.Trees, tr)
		m.Constraints = append(m.Constraints, &lowlevel.Constraint{Name: name, Trees: []*lowlevel.Tree{tr}, Index: i})
	}
	return m
}

// testLocal is a borrowed buffer observing into one registry, over a toy
// description shaped like the registry.
type testLocal struct {
	*Local
	m *lowlevel.MDES
}

func newTestLocal(r *Registry) testLocal {
	m := toyMDES(r.ClassNames(), r.ResourceNames())
	l := (&Views{Metrics: r, MDES: m}).NewLocal()
	l.Begin()
	return testLocal{l, m}
}

// attempt feeds one Attempt event for a probe of class in phase p
// outside any block (op -1), which the phase totals count at once.
func (l testLocal) attempt(p Phase, class int, options, checks, ns int64, ok bool) {
	l.Attempt(p, l.m.Constraints[class], -1, "op", 0, options, checks, ns, ok, []int{0})
}

// A block's attempts reach the phase totals through its BlockDone, from
// the block's counters; an attempt outside any block folds its own at
// once. Either way the per-class counts are per attempt.
func TestPhaseTotalsFoldAtBlockDone(t *testing.T) {
	r := NewRegistry([]string{"alu"}, []string{"r0"})
	l := newTestLocal(r)
	con := l.m.Constraints[0]
	l.Attempt(PhaseList, con, 0, "ADD", 0, 2, 3, -1, true, []int{0})
	l.Attempt(PhaseList, con, 1, "ADD", 0, 1, 1, -1, false, nil)
	if l.phases[PhaseList].attempts != 0 {
		t.Fatal("an attempt inside a block reached the phase totals before its BlockDone")
	}
	l.BlockDone(PhaseList, 0, 2, -1, stats.Counters{Attempts: 2, OptionsChecked: 3, ResourceChecks: 4, Conflicts: 1, Backtracks: 5})
	l.Attempt(PhaseQuery, con, -1, "", 0, 1, 2, -1, false, nil)
	l.Merge()
	s := r.Snapshot()
	list, query := s.Phases[PhaseList], s.Phases[PhaseQuery]
	if list.Attempts != 2 || list.OptionsChecked != 3 || list.ResourceChecks != 4 || list.Conflicts != 1 || list.Backtracks != 5 {
		t.Fatalf("list phase = %+v", list)
	}
	if query.Attempts != 1 || query.OptionsChecked != 1 || query.ResourceChecks != 2 || query.Conflicts != 1 {
		t.Fatalf("query phase = %+v", query)
	}
	if c := s.Classes[0]; c.Attempts != 3 || c.OptionsChecked != 4 || c.Conflicts != 2 {
		t.Fatalf("class = %+v", c)
	}
}

// The trace view renders a Conflict event ahead of the failed attempt it
// explains, naming the blocking resource and the blocked tree's preferred
// option by its HMDES provenance, and stamps the block's ID, size, length
// and counters on the record it hands the callback at BlockDone.
func TestTraceConflictProvenance(t *testing.T) {
	m := toyMDES([]string{"alu"}, []string{"r0", "r1"})
	var recs []BlockRecord
	keep := func(r *BlockRecord) {
		r2 := *r
		r2.Events = append([]Event(nil), r.Events...)
		recs = append(recs, r2)
	}
	l := (&Views{Trace: keep, MDES: m}).NewLocal()
	l.Begin()
	con := m.Constraints[0]
	l.Attempt(PhaseList, con, 0, "ADD", 0, 1, 1, -1, true, []int{0})
	l.Attempt(PhaseList, con, 1, "ADD", 0, 1, 1, -1, false, nil)
	if !l.Attributes() {
		t.Fatal("a traced block does not want its conflicts attributed")
	}
	l.Conflict(0, 1, 2)
	l.BlockDone(PhaseList, 7, 2, -1, stats.Counters{Attempts: 2, Conflicts: 1})
	if len(recs) != 1 {
		t.Fatalf("%d records, want 1", len(recs))
	}
	rec := recs[0]
	if rec.Block != 7 || rec.Ops != 2 || rec.Length != -1 || rec.Machine != "toy" || rec.Counters.Conflicts != 1 {
		t.Fatalf("record header %+v", rec)
	}
	want := []Event{
		{Kind: "attempt", Op: 0, Opcode: "ADD", Options: 1, OK: true},
		{Kind: "conflict", Op: 1, Opcode: "ADD", Res: "r1", Time: 2, Src: "alu[0]"},
		{Kind: "attempt", Op: 1, Opcode: "ADD", Options: 1},
	}
	if len(rec.Events) != len(want) {
		t.Fatalf("events %+v, want %+v", rec.Events, want)
	}
	for i := range want {
		if rec.Events[i] != want[i] {
			t.Fatalf("event %d = %+v, want %+v", i, rec.Events[i], want[i])
		}
	}
}

// The trace view hands its callback one record, reused for every block:
// once its event slice has grown, a traced block allocates nothing.
func TestTraceViewReusesRecord(t *testing.T) {
	m := toyMDES([]string{"alu"}, []string{"r0"})
	var first *BlockRecord
	blocks := 0
	l := (&Views{MDES: m, Trace: func(r *BlockRecord) {
		if first == nil {
			first = r
		}
		if r != first || len(r.Events) != 8 {
			t.Fatalf("block %d: record %p with %d events, want %p with 8", blocks, r, len(r.Events), first)
		}
		blocks++
	}}).NewLocal()
	l.Begin()
	con := m.Constraints[0]
	block := func() {
		for op := 0; op < 8; op++ {
			l.Attempt(PhaseList, con, op, "ADD", op, 1, 1, -1, true, []int{0})
		}
		l.BlockDone(PhaseList, int64(blocks), 8, 8, stats.Counters{Attempts: 8})
	}
	block()
	if allocs := testing.AllocsPerRun(100, block); allocs != 0 {
		t.Fatalf("a traced block allocates %.1f times, want 0", allocs)
	}
}
