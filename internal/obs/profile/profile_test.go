package profile

import (
	"strings"
	"testing"

	"mdes/internal/lowlevel"
)

// ToyMDES exports testMDES to the external view tests.
var ToyMDES = testMDES

// testMDES builds a small hand-rolled description exercising both layout
// shapes the hot path cares about: a constraint with a multi-option tree
// (per-option accounting) and an all-single-option constraint (Snapshot
// reconstruction from attempts - conflicts).
func testMDES() *lowlevel.MDES {
	optA0 := &lowlevel.Option{ID: 0, Src: "A[0]", Usages: []lowlevel.Usage{{Time: 0, Res: 0}}}
	optA1 := &lowlevel.Option{ID: 1, Src: "A[1]", Usages: []lowlevel.Usage{{Time: 0, Res: 1}}}
	optB0 := &lowlevel.Option{ID: 2, Src: "B[0]", Usages: []lowlevel.Usage{{Time: 1, Res: 2}}}
	optC0 := &lowlevel.Option{ID: 3, Src: "C[0]", Usages: []lowlevel.Usage{{Time: 0, Res: 2}}}
	treeA := &lowlevel.Tree{ID: 0, Name: "A", Options: []*lowlevel.Option{optA0, optA1}}
	treeB := &lowlevel.Tree{ID: 1, Name: "B", Options: []*lowlevel.Option{optB0}}
	treeC := &lowlevel.Tree{ID: 2, Src: "C", Options: []*lowlevel.Option{optC0}}
	return &lowlevel.MDES{
		MachineName:   "toy",
		NumResources:  3,
		ResourceNames: []string{"r0", "r1", "r2"},
		Options:       []*lowlevel.Option{optA0, optA1, optB0, optC0},
		Trees:         []*lowlevel.Tree{treeA, treeB, treeC},
		Constraints: []*lowlevel.Constraint{
			{Name: "alu", Trees: []*lowlevel.Tree{treeA, treeB}, Index: 0},
			{Name: "mem", Trees: []*lowlevel.Tree{treeC}, Index: 1},
		},
	}
}

func TestLayoutShape(t *testing.T) {
	l := NewLayout(testMDES())
	if got := l.NumConstraints(); got != 2 {
		t.Fatalf("NumConstraints = %d, want 2", got)
	}
	// Only tree A is multi-option, owned by constraint 0 at position 0.
	if len(l.conMulti) != 1 || l.conMulti[0] != (MultiTree{Tree: 0, Lo: 0, Hi: 2}) {
		t.Fatalf("conMulti = %+v, want one entry for tree A", l.conMulti)
	}
	if l.conMultiStart[1] != 1 || l.conMultiStart[2] != 1 {
		t.Fatalf("conMultiStart = %v, want [0 1 1]", l.conMultiStart)
	}
	if got := l.Multi(0); len(got) != 1 || got[0] != l.conMulti[0] || len(l.Multi(1)) != 0 {
		t.Fatalf("Multi = %v / %v, want tree A for alu and nothing for mem", got, l.Multi(1))
	}
	if l.TreeSlot(1, 0) != 2 || l.TreeSlot(0, 2) != -1 || l.TreeSlot(2, 0) != -1 || l.TreeSlot(0, -1) != -1 {
		t.Fatalf("TreeSlot maps (1,0)->%d (0,2)->%d (2,0)->%d (0,-1)->%d, want 2 -1 -1 -1",
			l.TreeSlot(1, 0), l.TreeSlot(0, 2), l.TreeSlot(2, 0), l.TreeSlot(0, -1))
	}
	if len(l.treeNames) != 3 || len(l.optSrcs) != 4 {
		t.Fatalf("flattened %d trees / %d options, want 3 / 4", len(l.treeNames), len(l.optSrcs))
	}
	// Tree C has no Name; the layout falls back to Src.
	if l.treeNames[2] != "C" {
		t.Fatalf("treeNames[2] = %q, want Src fallback %q", l.treeNames[2], "C")
	}
}

func TestMetaStamps(t *testing.T) {
	p := New(testMDES())
	p.SetMeta("toy", func() string { return "deadbeefdeadbeef" }, "probeplan")
	p.SetWorkload("seeded ops=100 seed=1")
	m := p.Meta()
	if m.Machine != "toy" || m.MachineHash != "deadbeefdeadbeef" ||
		m.Checker != "probeplan" || m.Workload != "seeded ops=100 seed=1" {
		t.Fatalf("meta = %+v", m)
	}
}

func TestTopResourcesAndFormat(t *testing.T) {
	p := New(testMDES())
	p.AddConstraint(0, 6, 6)
	p.AddResource(2, 5)
	p.AddResource(0, 1)
	s := p.Snapshot()

	top := TopResources(&s, 1)
	if len(top) != 1 || top[0].Resource != "r2" || top[0].Conflicts != 5 {
		t.Fatalf("TopResources = %+v, want [r2:5]", top)
	}
	out := FormatSnapshot(&s, 2)
	if !strings.Contains(out, "r2") || !strings.Contains(out, "alu") {
		t.Fatalf("FormatSnapshot missing expected rows:\n%s", out)
	}
}
