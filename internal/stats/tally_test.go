package stats

import (
	"slices"
	"testing"
)

// A tally journals each constraint, tree slot and resource on its first
// touch only, ignores out-of-range blame, keeps selections and first
// blocks only when asked, and Reset zeroes exactly what the journals
// name, leaving selections to the caller.
func TestTallyJournalsAndReset(t *testing.T) {
	tl := NewTally(3, 4, 6, 2, true)
	tl.Succeeded(2, 3, []int32{5})
	tl.Failed(0, 1, 3, 1)
	tl.Failed(2, 2, -1, -1)
	tl.Blame(3, 1)
	tl.Blame(-1, 9)
	if want := (ConCount{Attempts: 2, Options: 5, Conflicts: 1}); tl.Cons[2] != want {
		t.Fatalf("constraint 2 = %+v, want %+v", tl.Cons[2], want)
	}
	if !slices.Equal(tl.TouchedCon, []int32{2, 0}) || !slices.Equal(tl.TouchedTree, []int32{3}) || !slices.Equal(tl.TouchedRes, []int32{1}) {
		t.Fatalf("journals %v %v %v", tl.TouchedCon, tl.TouchedTree, tl.TouchedRes)
	}
	if tl.First[3] != 2 || tl.Res[1] != 2 || tl.Res[0] != 0 {
		t.Fatalf("first %v res %v", tl.First, tl.Res)
	}
	tl.Reset()
	if len(tl.TouchedCon)+len(tl.TouchedTree)+len(tl.TouchedRes) != 0 ||
		tl.Cons[2] != (ConCount{}) || tl.Cons[0] != (ConCount{}) || tl.First[3] != 0 || tl.Res[1] != 0 {
		t.Fatalf("reset left %+v", tl)
	}
	if tl.Selected[5] != 1 {
		t.Fatal("Reset cleared a selection")
	}
	m := NewTally(3, 4, 6, 2, false)
	m.Succeeded(1, 2, []int32{5})
	m.Failed(1, 1, 3, 0)
	if m.Selected != nil || m.First != nil || m.Cons[1] != (ConCount{Attempts: 2, Options: 3, Conflicts: 1}) || m.Res[0] != 1 {
		t.Fatalf("a tally without slots: %+v", m)
	}
}
