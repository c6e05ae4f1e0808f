package check

import (
	"fmt"
	"math/bits"

	"mdes/internal/bitset"
	"mdes/internal/lowlevel"
	"mdes/internal/stats"
)

// ownerAnon marks slots reserved through the plain Checker interface,
// which carries no operation identity. It is never a valid operation
// index, so anonymous reservations are invisible to eviction.
const ownerAnon = int32(1) << 30

// ownerFree marks an unreserved slot.
const ownerFree = int32(-1)

// Modulo is the software-pipelining checker backend: a modulo-wrapped
// resource-usage map in which slot (res, cycle) folds onto row cycle mod
// II. The busy test is bit-packed — one word probe per CycleMask, exactly
// like the acyclic RU map — while a parallel owner table keeps the
// operation identity reservation tables retain and automata lose, enabling
// the eviction (unscheduling) step of iterative modulo scheduling (§10).
//
// Checking must also reject options that fold onto the same slot twice at
// this II (a modulo self-collision) and combinations whose trees
// double-book a folded slot; both are detected with per-check scratch
// rows instead of the hash maps the previous implementation allocated
// against.
type Modulo struct {
	nres int
	ii   int

	// rows[r] holds the busy bits of modulo row r; owner[r][res] holds the
	// reserving operation index (only consulted on the eviction and
	// release slow paths, never by the packed busy test).
	rows  []bitset.Set
	owner [][]int32

	// taken accumulates the slots chosen by earlier trees of the Check in
	// progress; seen is the per-option self-collision scratch. Both are
	// cleared lazily through their dirty-row lists, so a Check touches
	// only the rows it probed.
	taken      []bitset.Set
	seen       []bitset.Set
	dirtyTaken []int
	dirtySeen  []int

	// chosenScratch holds CheckWindow's per-tree choices until a cycle
	// succeeds, so failed cycles allocate nothing.
	chosenScratch []int
}

// NewModulo returns a modulo checker for a machine with nres resources at
// initiation interval ii.
func NewModulo(nres, ii int) *Modulo {
	m := &Modulo{nres: nres}
	m.Configure(ii)
	return m
}

// II returns the configured initiation interval.
func (m *Modulo) II() int { return m.ii }

// Configure clears the map and sets a new initiation interval, retaining
// row storage across candidate IIs (the modulo scheduler's II search
// reuses one Modulo instead of allocating per candidate).
func (m *Modulo) Configure(ii int) {
	if ii < 1 {
		panic(fmt.Sprintf("check: modulo II %d < 1", ii))
	}
	for len(m.rows) < ii {
		m.rows = append(m.rows, bitset.New(m.nres))
		m.taken = append(m.taken, bitset.New(m.nres))
		m.seen = append(m.seen, bitset.New(m.nres))
		m.owner = append(m.owner, make([]int32, m.nres))
	}
	m.ii = ii
	m.Reset()
}

// Reset implements Checker: every slot free, storage retained.
func (m *Modulo) Reset() {
	for r := 0; r < len(m.rows); r++ {
		m.rows[r].Reset()
		m.seen[r].Reset()
		m.taken[r].Reset()
		own := m.owner[r]
		for i := range own {
			own[i] = ownerFree
		}
	}
	m.dirtyTaken = m.dirtyTaken[:0]
	m.dirtySeen = m.dirtySeen[:0]
}

// wrap maps an absolute cycle onto its modulo row.
func (m *Modulo) wrap(cycle int) int {
	r := cycle % m.ii
	if r < 0 {
		r += m.ii
	}
	return r
}

func (m *Modulo) clearSeen() {
	for _, r := range m.dirtySeen {
		m.seen[r].Reset()
	}
	m.dirtySeen = m.dirtySeen[:0]
}

func (m *Modulo) clearTaken() {
	for _, r := range m.dirtyTaken {
		m.taken[r].Reset()
	}
	m.dirtyTaken = m.dirtyTaken[:0]
}

// optionFree reports whether every slot of the option is free with the
// operation issued at cycle issue, counting one resource check per probed
// mask (packed) or usage (scalar) — the same unit as the acyclic RU map.
// A slot already committed by an earlier tree of this Check (taken) or by
// an earlier usage of this same option after folding (seen) is busy.
func (m *Modulo) optionFree(o *lowlevel.Option, issue int, c *stats.Counters) bool {
	m.clearSeen()
	if o.Masks != nil {
		for _, cm := range o.Masks {
			c.ResourceChecks++
			r := m.wrap(issue + int(cm.Time))
			w := int(cm.Word)
			if m.rows[r].IntersectsMask(w, cm.Mask) ||
				m.taken[r].IntersectsMask(w, cm.Mask) ||
				m.seen[r].IntersectsMask(w, cm.Mask) {
				return false
			}
			m.seen[r].OrMask(w, cm.Mask)
			m.dirtySeen = append(m.dirtySeen, r)
		}
		return true
	}
	for _, u := range o.Usages {
		c.ResourceChecks++
		r := m.wrap(issue + int(u.Time))
		res := int(u.Res)
		if m.rows[r].Test(res) || m.taken[r].Test(res) || m.seen[r].Test(res) {
			return false
		}
		m.seen[r].Set(res)
		m.dirtySeen = append(m.dirtySeen, r)
	}
	return true
}

// addTaken commits an accepted option's slots to the in-progress Check's
// taken scratch so later trees cannot double-book a folded slot.
func (m *Modulo) addTaken(o *lowlevel.Option, issue int) {
	if o.Masks != nil {
		for _, cm := range o.Masks {
			r := m.wrap(issue + int(cm.Time))
			m.taken[r].OrMask(int(cm.Word), cm.Mask)
			m.dirtyTaken = append(m.dirtyTaken, r)
		}
		return
	}
	for _, u := range o.Usages {
		r := m.wrap(issue + int(u.Time))
		m.taken[r].Set(int(u.Res))
		m.dirtyTaken = append(m.dirtyTaken, r)
	}
}

// Check implements Checker: the same greedy AND-of-OR-trees algorithm as
// the acyclic RU map, against the modulo-wrapped rows.
func (m *Modulo) Check(con *lowlevel.Constraint, issue int, c *stats.Counters) (Selection, bool) {
	c.Attempts++
	m.clearTaken()
	sel := Selection{}
	sel.Constraint = con
	sel.Issue = issue
	sel.Chosen = make([]int, len(con.Trees))
	for ti, tree := range con.Trees {
		found := -1
		for oi, o := range tree.Options {
			c.OptionsChecked++
			if m.optionFree(o, issue, c) {
				found = oi
				break
			}
		}
		if found < 0 {
			c.Conflicts++
			return Selection{}, false
		}
		sel.Chosen[ti] = found
		m.addTaken(tree.Options[found], issue)
	}
	return sel, true
}

// CheckWindow probes [lo, hi) in one pass and
// return the first satisfiable cycle. Accounting-equivalent to a serial
// Check loop stopping at the first success, but failed cycles allocate
// nothing — the Selection is built only for the winning cycle, which is
// what the II search's inner try-window wants.
func (m *Modulo) CheckWindow(con *lowlevel.Constraint, lo, hi int, c *stats.Counters) (Selection, int, bool) {
	if cap(m.chosenScratch) < len(con.Trees) {
		m.chosenScratch = make([]int, len(con.Trees))
	}
	scratch := m.chosenScratch[:len(con.Trees)]
issue:
	for issue := lo; issue < hi; issue++ {
		c.Attempts++
		m.clearTaken()
		for ti, tree := range con.Trees {
			found := -1
			for oi, o := range tree.Options {
				c.OptionsChecked++
				if m.optionFree(o, issue, c) {
					found = oi
					break
				}
			}
			if found < 0 {
				c.Conflicts++
				continue issue
			}
			scratch[ti] = found
			m.addTaken(tree.Options[found], issue)
		}
		sel := Selection{}
		sel.Constraint = con
		sel.Issue = issue
		sel.Chosen = make([]int, len(scratch))
		copy(sel.Chosen, scratch)
		return sel, issue, true
	}
	return Selection{}, 0, false
}

// Reserve implements Checker, reserving anonymously; modulo scheduling
// uses ReserveFor so evictions can name their victims.
func (m *Modulo) Reserve(sel Selection) { m.ReserveFor(sel, ownerAnon) }

// ReserveFor applies a successful Selection on behalf of operation op.
func (m *Modulo) ReserveFor(sel Selection, op int32) {
	for ti, tree := range sel.Constraint.Trees {
		o := tree.Options[sel.Chosen[ti]]
		if o.Masks != nil {
			for _, cm := range o.Masks {
				r := m.wrap(sel.Issue + int(cm.Time))
				m.rows[r].OrMask(int(cm.Word), cm.Mask)
				own := m.owner[r]
				base := int(cm.Word) * bitset.WordBits
				for mask := cm.Mask; mask != 0; mask &= mask - 1 {
					own[base+bits.TrailingZeros64(mask)] = op
				}
			}
			continue
		}
		for _, u := range o.Usages {
			r := m.wrap(sel.Issue + int(u.Time))
			m.rows[r].Set(int(u.Res))
			m.owner[r][u.Res] = op
		}
	}
}

// Release implements Checker, undoing an anonymous Reserve.
func (m *Modulo) Release(sel Selection) { m.ReleaseFor(sel, ownerAnon) }

// ReleaseFor undoes a ReserveFor: only slots still owned by op are freed
// (an evicted-and-replaced slot belongs to its new owner). Releasing a
// zero Selection is a no-op.
func (m *Modulo) ReleaseFor(sel Selection, op int32) {
	if sel.Constraint == nil {
		return
	}
	for ti, tree := range sel.Constraint.Trees {
		o := tree.Options[sel.Chosen[ti]]
		if o.Masks != nil {
			for _, cm := range o.Masks {
				r := m.wrap(sel.Issue + int(cm.Time))
				own := m.owner[r]
				base := int(cm.Word) * bitset.WordBits
				for mask := cm.Mask; mask != 0; mask &= mask - 1 {
					res := base + bits.TrailingZeros64(mask)
					if own[res] == op {
						own[res] = ownerFree
						m.rows[r].Clear(res)
					}
				}
			}
			continue
		}
		for _, u := range o.Usages {
			r := m.wrap(sel.Issue + int(u.Time))
			if m.owner[r][u.Res] == op {
				m.owner[r][u.Res] = ownerFree
				m.rows[r].Clear(int(u.Res))
			}
		}
	}
}

// EvictConflicts frees every slot the constraint's highest-priority
// options need at the forced issue cycle, unscheduling the current owners
// entirely (every slot they hold, not just the contested ones) and
// returning them in ascending order — Rau's forced-placement displacement.
func (m *Modulo) EvictConflicts(con *lowlevel.Constraint, issue int) []int {
	var victims []int
	for _, tree := range con.Trees {
		for _, u := range tree.Options[0].ExpandedUsages() {
			r := m.wrap(issue + int(u.Time))
			if op := m.owner[r][u.Res]; op >= 0 && op != ownerAnon {
				dup := false
				for _, v := range victims {
					if v == int(op) {
						dup = true
						break
					}
				}
				if !dup {
					victims = append(victims, int(op))
				}
			}
		}
	}
	// Ascending victim order keeps evictions deterministic.
	for i := 1; i < len(victims); i++ {
		for j := i; j > 0 && victims[j-1] > victims[j]; j-- {
			victims[j-1], victims[j] = victims[j], victims[j-1]
		}
	}
	for _, v := range victims {
		m.evictOp(int32(v))
	}
	return victims
}

// evictOp frees every slot owned by op.
func (m *Modulo) evictOp(op int32) {
	for r := range m.owner {
		own := m.owner[r]
		for res, o := range own {
			if o == op {
				own[res] = ownerFree
				m.rows[r].Clear(res)
			}
		}
	}
}

// Capabilities implements Checker. The modulo backend is not a selectable
// acyclic Kind: it wraps cycles, so only modulo schedulers use it.
func (m *Modulo) Capabilities() Capabilities {
	return Capabilities{Backend: "modmap", CanRelease: true, Modulo: true}
}

// Modulo implements the Checker interface.
var _ Checker = (*Modulo)(nil)
var _ Checker = (*Automaton)(nil)
