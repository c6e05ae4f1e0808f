package stats

// Tally breaks a borrower's Counters down the way the observation views
// attribute them: per constraint its attempts, options checked and
// conflicts; per option slot the successful attempts that chose it; per
// tree slot the failed attempts it was the first to fail; per resource
// the failed attempts it blocked. Slots number a description's trees and
// options in its flattening order (constraint, tree, option), which the
// probe plan's spans and the conflict profile's layout share, so the
// prober tallies the slots it just walked with no translation.
//
// A constraint is journaled when first attempted, a tree slot or a
// resource when first blamed, so a fold walks only what was touched.
// Selected and First are nil unless kept (the conflict profile keeps
// them). A Tally is single-goroutine state, like the Counters it refines.
type Tally struct {
	Cons     []ConCount
	Selected []int64
	First    []int64
	Res      []int64

	TouchedCon, TouchedTree, TouchedRes []int32
}

// ConCount is one constraint's share of a Tally.
type ConCount struct{ Attempts, Options, Conflicts int64 }

// NewTally returns an empty tally over cons constraints and resources
// resources that, with slots set, also keeps the trees and options
// counts. Each journal can hold every slot it journals, so recording a
// first touch never grows it.
func NewTally(cons, trees, options, resources int, slots bool) *Tally {
	t := &Tally{
		Cons:       make([]ConCount, cons),
		Res:        make([]int64, resources),
		TouchedCon: make([]int32, 0, cons),
		TouchedRes: make([]int32, 0, resources),
	}
	if slots {
		t.Selected = make([]int64, options)
		t.First = make([]int64, trees)
		t.TouchedTree = make([]int32, 0, trees)
	}
	return t
}

// Succeeded counts a successful attempt of constraint ci that checked
// options options and chose the option slots slots, one per tree; the
// slots count only when the tally keeps selections. Inlinable: a
// success is the common probe.
func (t *Tally) Succeeded(ci int, options int64, slots []int32) {
	t.attempt(ci, options)
	if sel := t.Selected; sel != nil {
		for _, s := range slots {
			sel[s]++
		}
	}
}

// Failed counts a failed attempt of constraint ci that checked options
// options and attributes it (Blame) to tree slot tree and resource res.
func (t *Tally) Failed(ci int, options int64, tree, res int) {
	t.attempt(ci, options).Conflicts++
	t.Blame(tree, res)
}

// attempt counts one attempt of constraint ci that checked options
// options and returns the constraint's counts.
func (t *Tally) attempt(ci int, options int64) *ConCount {
	cs := &t.Cons[ci]
	if cs.Attempts == 0 {
		t.TouchedCon = journal(t.TouchedCon, ci)
	}
	cs.Attempts++
	cs.Options += options
	return cs
}

// Blame attributes a failed attempt: tree is the tree slot of its first
// unsatisfiable tree and res the resource blocking that tree's preferred
// option. A negative or out-of-range index is unattributed. Failed
// calls it; an event stream that reports the attribution after the
// attempt (obs.Local's Conflict) calls it alone.
func (t *Tally) Blame(tree, res int) {
	if uint(res) < uint(len(t.Res)) {
		if t.Res[res] == 0 {
			t.TouchedRes = journal(t.TouchedRes, res)
		}
		t.Res[res]++
	}
	if uint(tree) < uint(len(t.First)) {
		if t.First[tree] == 0 {
			t.TouchedTree = journal(t.TouchedTree, tree)
		}
		t.First[tree]++
	}
}

// Reset zeroes every journaled constraint, tree slot and resource and
// empties the journals. The selections of each journaled constraint are
// its caller's to clear (they lie in the constraint's option slots,
// which only the description's layout knows).
func (t *Tally) Reset() {
	for _, ci := range t.TouchedCon {
		t.Cons[ci] = ConCount{}
	}
	for _, ti := range t.TouchedTree {
		t.First[ti] = 0
	}
	for _, ri := range t.TouchedRes {
		t.Res[ri] = 0
	}
	t.TouchedCon, t.TouchedTree, t.TouchedRes = t.TouchedCon[:0], t.TouchedTree[:0], t.TouchedRes[:0]
}

// journal records slot i's first touch in a journal whose capacity holds
// every slot (see NewTally), so it never grows.
func journal(j []int32, i int) []int32 {
	n := len(j)
	j = j[:n+1]
	j[n] = int32(i)
	return j
}
