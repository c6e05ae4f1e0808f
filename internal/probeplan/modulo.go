package probeplan

import (
	"fmt"
	"math/bits"
	"slices"

	"mdes/internal/bitset"
	"mdes/internal/lowlevel"
	"mdes/internal/stats"
)

// Modulo is the probe plan's reservation table folded modulo an
// initiation interval (II): the modulo resource-usage map of iterative
// modulo scheduling, where cycle c lands on row c mod II. It walks the
// same spans and probe words as the Prober, with the same accounting,
// and adds an owner table naming the operation in every slot — the
// identity reservation tables keep and automata lose (§10), which the
// unscheduling (eviction) step needs.
//
// A Modulo serves one goroutine at a time; the Plan it walks is shared
// read-only. Selections from Check borrow their Chosen slices from an
// arena that Configure recycles, so a Check allocates nothing.
type Modulo struct {
	plan *Plan
	ii   int

	// rows holds ii × RowWords busy words; owner holds ii × NumRes
	// operation indices, -1 for a free slot.
	rows  []uint64
	owner []int32

	// claims lists the words a Check in progress has marked busy in rows,
	// with the bits it set: a usage that folds onto a slot claimed by the
	// same option, or by an earlier tree's choice, collides with it. Check
	// undoes every claim before it returns.
	claims []claim

	// chosen is the selection arena; scratch holds one constraint's
	// per-tree choices until the Check succeeds; victims is Evict's result.
	chosen  []int
	scratch []int
	victims []int
}

// claim is one word of rows a Check marked busy, and the bits it set.
type claim struct {
	idx  int
	mask uint64
}

// NewModulo returns an empty folded table over the compiled plan at
// initiation interval ii.
func NewModulo(p *Plan, ii int) *Modulo {
	m := &Modulo{plan: p, scratch: make([]int, p.maxTrees)}
	m.Configure(ii)
	return m
}

// Configure frees every slot, sets the initiation interval and recycles
// the selection arena, retaining storage, so one Modulo serves a whole II
// search. It panics when ii < 1.
func (m *Modulo) Configure(ii int) {
	if ii < 1 {
		panic(fmt.Sprintf("probeplan: modulo II %d < 1", ii))
	}
	m.ii = ii
	m.rows = slices.Grow(m.rows[:0], ii*m.plan.RowWords)[:ii*m.plan.RowWords]
	clear(m.rows)
	m.owner = slices.Grow(m.owner[:0], ii*m.plan.NumRes)[:ii*m.plan.NumRes]
	for i := range m.owner {
		m.owner[i] = -1
	}
	m.chosen = m.chosen[:0]
}

// row folds an absolute cycle onto its row.
func (m *Modulo) row(cycle int) int {
	r := cycle % m.ii
	if r < 0 {
		r += m.ii
	}
	return r
}

// Check is Prober.Check against the folded rows: one Attempt, one
// OptionsChecked per option probed, one ResourceChecks per probe word and
// one Conflict on failure. An option fails when one of its words is busy,
// including busy with a word claimed earlier in the same Check.
func (m *Modulo) Check(con *lowlevel.Constraint, issue int, c *stats.Counters) (Selection, bool) {
	c.Attempts++
	tlo, thi := m.plan.spanFor(con)
	scratch := m.scratch[:thi-tlo]
	for ti := tlo; ti < thi; ti++ {
		olo, ohi := m.plan.treeStart[ti], m.plan.treeStart[ti+1]
		found := -1
		for oi := olo; oi < ohi; oi++ {
			c.OptionsChecked++
			if m.claim(oi, issue, c) {
				found = int(oi - olo)
				break
			}
		}
		if found < 0 {
			m.unclaim(0)
			c.Conflicts++
			return Selection{}, false
		}
		scratch[ti-tlo] = found
	}
	m.unclaim(0)
	return commit(&m.chosen, con, issue, scratch), true
}

// claim probes one option's words, claiming each free one. At the first
// busy word it undoes the option's claims and reports false.
func (m *Modulo) claim(opt int32, issue int, c *stats.Counters) bool {
	mark := len(m.claims)
	for wi := m.plan.optStart[opt]; wi < m.plan.optStart[opt+1]; wi++ {
		c.ResourceChecks++
		w := m.plan.words[wi]
		idx := m.row(issue+int(w.Time))*m.plan.RowWords + int(w.Widx)
		if bitset.WordIntersects(m.rows, idx, w.Mask) {
			m.unclaim(mark)
			return false
		}
		bitset.WordOr(m.rows, idx, w.Mask)
		m.claims = append(m.claims, claim{idx, w.Mask})
	}
	return true
}

// unclaim clears the claims from index mark on.
func (m *Modulo) unclaim(mark int) {
	for _, cl := range m.claims[mark:] {
		bitset.WordAndNot(m.rows, cl.idx, cl.mask)
	}
	m.claims = m.claims[:mark]
}

// Reserve applies a successful Selection on behalf of operation op.
func (m *Modulo) Reserve(sel Selection, op int) {
	m.slots(sel, func(r, res int) { m.take(r, res, op) })
}

// Release undoes a Reserve of op, freeing only the slots op still owns:
// a slot evicted and reserved again belongs to its new owner.
func (m *Modulo) Release(sel Selection, op int) {
	m.slots(sel, func(r, res int) {
		if m.owner[r*m.plan.NumRes+res] == int32(op) {
			m.take(r, res, -1)
		}
	})
}

// Evict frees every slot that the first option of each of con's trees
// needs at issue by unscheduling each owner entirely — Rau's
// forced-placement displacement — and returns the owners in ascending
// order. The result is valid until the next Evict.
func (m *Modulo) Evict(con *lowlevel.Constraint, issue int) []int {
	m.victims = m.victims[:0]
	tlo, thi := m.plan.spanFor(con)
	for ti := tlo; ti < thi; ti++ {
		m.optionSlots(m.plan.treeStart[ti], issue, func(r, res int) {
			if op := int(m.owner[r*m.plan.NumRes+res]); op >= 0 && !slices.Contains(m.victims, op) {
				m.victims = append(m.victims, op)
			}
		})
	}
	slices.Sort(m.victims)
	for _, op := range m.victims {
		for slot, o := range m.owner {
			if int(o) == op {
				m.take(slot/m.plan.NumRes, slot%m.plan.NumRes, -1)
			}
		}
	}
	return m.victims
}

// take gives slot (row r, resource res) to op, or frees it when op < 0.
func (m *Modulo) take(r, res, op int) {
	m.owner[r*m.plan.NumRes+res] = int32(op)
	idx, bit := r*m.plan.RowWords+res/bitset.WordBits, uint64(1)<<uint(res%bitset.WordBits)
	if op < 0 {
		bitset.WordAndNot(m.rows, idx, bit)
	} else {
		bitset.WordOr(m.rows, idx, bit)
	}
}

// slots calls fn with the row and resource of every slot a selection
// holds.
func (m *Modulo) slots(sel Selection, fn func(r, res int)) {
	tlo, _ := m.plan.spanFor(sel.Constraint)
	for i, choice := range sel.Chosen {
		m.optionSlots(m.plan.treeStart[tlo+int32(i)]+int32(choice), sel.Issue, fn)
	}
}

// optionSlots calls fn with the row and resource of every slot one
// option uses at issue.
func (m *Modulo) optionSlots(opt int32, issue int, fn func(r, res int)) {
	for wi := m.plan.optStart[opt]; wi < m.plan.optStart[opt+1]; wi++ {
		w := m.plan.words[wi]
		r := m.row(issue + int(w.Time))
		for b := w.Mask; b != 0; b &= b - 1 {
			fn(r, int(w.Widx)*bitset.WordBits+bits.TrailingZeros64(b))
		}
	}
}
