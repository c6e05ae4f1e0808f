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

// attempt feeds one Attempt event for a probe of class in phase p.
func (l testLocal) attempt(p Phase, class int, options, checks, ns int64, ok bool) {
	l.Attempt(p, l.m.Constraints[class], 0, "op", 0, options, checks, ns, ok, []int{0})
}

// The tracer view renders a Conflict event ahead of the failed attempt it
// explains, naming the blocking resource and the blocked tree's preferred
// option by its HMDES provenance, and stamps the block's ID, size, length
// and counters on the record at BlockDone.
func TestTraceConflictProvenance(t *testing.T) {
	m := toyMDES([]string{"alu"}, []string{"r0", "r1"})
	ring := NewRingSink(4)
	l := (&Views{Tracer: New(ring), MDES: m}).NewLocal()
	l.Begin()
	con := m.Constraints[0]
	l.Attempt(PhaseList, con, 0, "ADD", 0, 1, 1, -1, true, []int{0})
	l.Attempt(PhaseList, con, 1, "ADD", 0, 1, 1, -1, false, nil)
	if !l.Attributes() {
		t.Fatal("a sampled block does not want its conflicts attributed")
	}
	l.Conflict(0, 1, 2)
	l.BlockDone(PhaseList, 7, 2, -1, stats.Counters{Attempts: 2, Conflicts: 1})
	recs := ring.Snapshot()
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
