package profile_test

import (
	"sync"
	"testing"

	"mdes/internal/lowlevel"
	"mdes/internal/obs"
	"mdes/internal/obs/profile"
)

// profiled is a borrowed observation buffer whose only view is one
// profile over the toy description.
type profiled struct {
	*obs.Local
	m *lowlevel.MDES
}

func borrow(p *profile.Profile, m *lowlevel.MDES) profiled {
	l := (&obs.Views{Profile: p, MDES: m}).NewLocal()
	l.Begin()
	return profiled{l, m}
}

// success feeds a satisfied probe of constraint con; chosen[ti] is the
// option picked in its ti-th tree.
func (l profiled) success(con int, chosen []int) {
	l.Attempt(obs.PhaseList, l.constraint(con), 0, "op", 0, 1, 1, -1, true, chosen)
}

// conflict feeds a failed probe of constraint con attributed to the tree
// at position tree and resource res (-1: unattributed).
func (l profiled) conflict(con, tree, res int) {
	l.Attempt(obs.PhaseList, l.constraint(con), 0, "op", 0, 1, 1, -1, false, nil)
	l.Conflict(tree, res, 0)
}

// constraint returns constraint con, or a stand-in carrying an
// out-of-range index.
func (l profiled) constraint(con int) *lowlevel.Constraint {
	if con >= 0 && con < len(l.m.Constraints) {
		return l.m.Constraints[con]
	}
	return &lowlevel.Constraint{Name: "stray", Trees: l.m.Constraints[0].Trees, Index: con}
}

func TestSuccessConflictMergeSnapshot(t *testing.T) {
	m := profile.ToyMDES()
	p := profile.New(m)
	l := borrow(p, m)

	// alu succeeds picking A[1] (so A[0] was probed busy) and B[0].
	l.success(0, []int{1, 0})
	// alu fails: tree 0 blocks first, attributed to resource r2.
	l.conflict(0, 0, 2)
	// mem succeeds twice and fails once, unattributed.
	l.success(1, []int{0})
	l.success(1, []int{0})
	l.conflict(1, -1, -1)
	l.Merge()

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
	m := profile.ToyMDES()
	p := profile.New(m)
	l := borrow(p, m)
	for round := 0; round < 3; round++ {
		l.success(0, []int{0, 0})
		l.conflict(0, 1, 1)
		l.Merge()
		l.Begin()
	}
	// A merged (and so reset) buffer must contribute nothing on re-merge.
	l.Merge()
	s := p.Snapshot()
	if s.Constraints[0].Attempts != 6 || s.Constraints[0].Conflicts != 3 {
		t.Fatalf("after 3 rounds: attempts/conflicts = %d/%d, want 6/3",
			s.Constraints[0].Attempts, s.Constraints[0].Conflicts)
	}
	if s.Constraints[0].Trees[1].FirstBlock != 3 {
		t.Fatalf("tree B first_block = %d, want 3", s.Constraints[0].Trees[1].FirstBlock)
	}
	if s.Merges != 3 {
		t.Fatalf("Merges = %d, want 3 (clean buffer must not merge)", s.Merges)
	}
}

// A buffer folds only into the views it was built for: a profile it does
// not observe stays untouched, as does one whose buffer saw no attempt.
func TestMergeForeignLocal(t *testing.T) {
	m := profile.ToyMDES()
	p, other := profile.New(m), profile.New(m)
	l := borrow(other, m)
	l.success(0, []int{0, 0})
	l.Merge()
	if s := p.Snapshot(); s.Merges != 0 || s.Constraints[0].Attempts != 0 {
		t.Fatalf("foreign buffer merged: %+v", s)
	}
	idle := borrow(p, m)
	idle.Merge()
	if got := p.Snapshot().Merges; got != 0 {
		t.Fatalf("idle merge counted: %d", got)
	}
}

func TestOutOfRangeIndices(t *testing.T) {
	m := profile.ToyMDES()
	p := profile.New(m)
	l := borrow(p, m)
	l.success(99, []int{0})
	l.conflict(-1, 0, 0)
	l.conflict(0, 99, 99)     // tree/res out of range: conflict still counts
	l.success(0, []int{9, 9}) // chosen option out of range: attempt still counts
	l.Merge()
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
	for _, tr := range s.Constraints[0].Trees {
		if tr.FirstBlock != 0 {
			t.Fatalf("out-of-range tree attributed: %+v", tr)
		}
	}
}

// TestConcurrentMerge exercises the single-writer-buffer / atomic-shared
// contract under the race detector: one buffer per goroutine, merged and
// reset repeatedly while another goroutine snapshots.
func TestConcurrentMerge(t *testing.T) {
	m := profile.ToyMDES()
	p := profile.New(m)
	const goroutines, rounds = 8, 200
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			l := borrow(p, m)
			for i := 0; i < rounds; i++ {
				l.success(0, []int{1, 0})
				l.conflict(0, 0, 2)
				l.success(1, []int{0})
				l.Merge()
				l.Begin()
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
