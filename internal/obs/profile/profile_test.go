package profile

import (
	"strings"
	"sync"
	"testing"

	"mdes/internal/lowlevel"
)

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
	if len(l.conMulti) != 1 || l.conMulti[0] != (multiTree{ti: 0, o0: 0, o1: 2}) {
		t.Fatalf("conMulti = %+v, want one entry for tree A", l.conMulti)
	}
	if l.conMultiStart[1] != 1 || l.conMultiStart[2] != 1 {
		t.Fatalf("conMultiStart = %v, want [0 1 1]", l.conMultiStart)
	}
	if len(l.treeNames) != 3 || len(l.optSrcs) != 4 {
		t.Fatalf("flattened %d trees / %d options, want 3 / 4", len(l.treeNames), len(l.optSrcs))
	}
	// Tree C has no Name; the layout falls back to Src.
	if l.treeNames[2] != "C" {
		t.Fatalf("treeNames[2] = %q, want Src fallback %q", l.treeNames[2], "C")
	}
}

func TestSuccessConflictMergeSnapshot(t *testing.T) {
	p := New(testMDES())
	l := p.NewLocal()

	// alu succeeds picking A[1] (so A[0] was probed busy) and B[0].
	l.Success(0, []int{1, 0})
	// alu fails: tree 0 blocks first, attributed to resource r2.
	l.Conflict(0, 0, 2)
	// mem succeeds twice and fails once, unattributed.
	l.Success(1, []int{0})
	l.Success(1, []int{0})
	l.Conflict(1, -1, -1)
	p.Merge(l)

	s := p.Snapshot()
	if s.Merges != 1 {
		t.Fatalf("Merges = %d, want 1", s.Merges)
	}
	alu := s.Constraints[0]
	if alu.Attempts != 2 || alu.Conflicts != 1 {
		t.Fatalf("alu attempts/conflicts = %d/%d, want 2/1", alu.Attempts, alu.Conflicts)
	}
	if got := alu.Trees[0].FirstBlock; got != 1 {
		t.Fatalf("alu tree A first_block = %d, want 1", got)
	}
	a := alu.Trees[0].Options
	if a[0].Selected != 0 || a[0].Blocked != 1 || a[1].Selected != 1 || a[1].Blocked != 0 {
		t.Fatalf("tree A options = %+v, want A[0] blocked once, A[1] selected once", a)
	}
	// Single-option trees carry no hot-path counters; Snapshot reconstructs
	// Selected = attempts - conflicts.
	if got := alu.Trees[1].Options[0].Selected; got != 1 {
		t.Fatalf("tree B reconstructed selected = %d, want 1", got)
	}
	mem := s.Constraints[1]
	if mem.Attempts != 3 || mem.Conflicts != 1 {
		t.Fatalf("mem attempts/conflicts = %d/%d, want 3/1", mem.Attempts, mem.Conflicts)
	}
	if got := mem.Trees[0].Options[0].Selected; got != 2 {
		t.Fatalf("tree C reconstructed selected = %d, want 2", got)
	}
	if s.Resources[2].Conflicts != 1 || s.Resources[0].Conflicts != 0 {
		t.Fatalf("resource conflicts = %+v, want only r2=1", s.Resources)
	}
}

func TestLocalResetReuse(t *testing.T) {
	p := New(testMDES())
	l := p.NewLocal()
	for round := 0; round < 3; round++ {
		l.Success(0, []int{0, 0})
		l.Conflict(0, 1, 1)
		p.Merge(l)
		l.Reset()
	}
	// A merged-then-reset local must contribute nothing on re-merge.
	p.Merge(l)
	s := p.Snapshot()
	if s.Constraints[0].Attempts != 6 || s.Constraints[0].Conflicts != 3 {
		t.Fatalf("after 3 rounds: attempts/conflicts = %d/%d, want 6/3",
			s.Constraints[0].Attempts, s.Constraints[0].Conflicts)
	}
	if s.Constraints[0].Trees[1].FirstBlock != 3 {
		t.Fatalf("tree B first_block = %d, want 3", s.Constraints[0].Trees[1].FirstBlock)
	}
	if s.Merges != 3 {
		t.Fatalf("Merges = %d, want 3 (clean local must not merge)", s.Merges)
	}
}

func TestMergeForeignLocal(t *testing.T) {
	p := New(testMDES())
	other := New(testMDES())
	l := other.NewLocal()
	l.Success(0, []int{0, 0})
	p.Merge(l) // wrong layout: must be a no-op
	if s := p.Snapshot(); s.Merges != 0 || s.Constraints[0].Attempts != 0 {
		t.Fatalf("foreign local merged: %+v", s)
	}
	p.Merge(nil) // nil local: no-op
	if got := p.Snapshot().Merges; got != 0 {
		t.Fatalf("nil merge counted: %d", got)
	}
}

func TestOutOfRangeIndices(t *testing.T) {
	p := New(testMDES())
	l := p.NewLocal()
	l.Success(99, []int{0})
	l.Conflict(-1, 0, 0)
	l.Conflict(0, 99, 99)     // tree/res out of range: conflict still counts
	l.Success(0, []int{9, 9}) // chosen option out of range: attempt still counts
	p.Merge(l)
	s := p.Snapshot()
	if s.Constraints[0].Attempts != 2 || s.Constraints[0].Conflicts != 1 {
		t.Fatalf("attempts/conflicts = %d/%d, want 2/1",
			s.Constraints[0].Attempts, s.Constraints[0].Conflicts)
	}
	for _, r := range s.Resources {
		if r.Conflicts != 0 {
			t.Fatalf("out-of-range resource attributed: %+v", r)
		}
	}
}

// TestConcurrentMerge exercises the single-writer-local / atomic-shared
// contract under the race detector: one Local per goroutine, merged and
// reset repeatedly while another goroutine snapshots.
func TestConcurrentMerge(t *testing.T) {
	p := New(testMDES())
	const goroutines, rounds = 8, 200
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			l := p.NewLocal()
			for i := 0; i < rounds; i++ {
				l.Success(0, []int{1, 0})
				l.Conflict(0, 0, 2)
				l.Success(1, []int{0})
				p.Merge(l)
				l.Reset()
			}
		}()
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 50; i++ {
			_ = p.Snapshot()
		}
	}()
	wg.Wait()
	<-done

	s := p.Snapshot()
	want := int64(goroutines * rounds)
	if s.Constraints[0].Attempts != 2*want || s.Constraints[0].Conflicts != want {
		t.Fatalf("alu attempts/conflicts = %d/%d, want %d/%d",
			s.Constraints[0].Attempts, s.Constraints[0].Conflicts, 2*want, want)
	}
	if s.Constraints[1].Attempts != want {
		t.Fatalf("mem attempts = %d, want %d", s.Constraints[1].Attempts, want)
	}
	if s.Resources[2].Conflicts != want {
		t.Fatalf("r2 conflicts = %d, want %d", s.Resources[2].Conflicts, want)
	}
	if s.Merges != want {
		t.Fatalf("Merges = %d, want %d", s.Merges, want)
	}
}

func TestMetaStamps(t *testing.T) {
	p := New(testMDES())
	p.SetMeta("toy", "deadbeefdeadbeef", "probeplan")
	p.SetWorkload("seeded ops=100 seed=1")
	m := p.Meta()
	if m.Machine != "toy" || m.MachineHash != "deadbeefdeadbeef" ||
		m.Checker != "probeplan" || m.Workload != "seeded ops=100 seed=1" {
		t.Fatalf("meta = %+v", m)
	}
}

func TestTopResourcesAndFormat(t *testing.T) {
	p := New(testMDES())
	l := p.NewLocal()
	for i := 0; i < 5; i++ {
		l.Conflict(0, 0, 2)
	}
	l.Conflict(0, 0, 0)
	p.Merge(l)
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
