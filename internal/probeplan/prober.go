package probeplan

import (
	"fmt"
	"math/bits"

	"mdes/internal/bitset"
	"mdes/internal/lowlevel"
	"mdes/internal/stats"
)

// Selection records which option of each tree of a constraint a successful
// Check chose, so the reservation can be applied or later released.
type Selection struct {
	Constraint *lowlevel.Constraint
	Issue      int
	// Chosen[i] is the selected option index within Constraint.Trees[i].
	Chosen []int
}

// Prober is the per-context mutable half of the probe plan: a single
// row-major reservation window ([]uint64, Plan.RowWords words per cycle)
// plus the selection arena. A Prober serves one goroutine at a time; the
// Plan it walks is shared read-only.
//
// Selections returned by Check and CheckWindow borrow their Chosen slices
// from an append-only arena owned by the Prober and stay valid until the
// next Reset — long enough for the query layer, which retains several
// selections across probes before releasing them, and exactly the
// per-block lifetime the schedulers need. Reset recycles the arena; no
// steady-state Check allocates.
type Prober struct {
	plan *Plan

	// rows is the reservation window: nrows cycles starting at absolute
	// cycle base, plan.RowWords words each. A probe outside the window is
	// free (but still accounted); the window may extend to negative cycles
	// for decode-stage usages.
	rows  []uint64
	base  int
	nrows int

	// chosen is the selection arena; scratch is one constraint's worth of
	// per-tree choices, copied into the arena only on success. zero is a
	// permanently-zero row used to extend the window upward.
	chosen  []int
	scratch []int
	zero    []uint64

	// The most recent failed Check stashes which tree it died on and the
	// plan word that blocked that tree's highest-priority option: the
	// failing probe already walked exactly the span Blocker would re-walk,
	// so Blocker reduces to one FirstBlocked on the stashed word, as long
	// as the window state is unchanged (any Reserve/Release/Reset
	// invalidates). The stash itself is five stores on the already-taken
	// failure branch, costing the observation-off hot path nothing
	// measurable.
	lastCon   *lowlevel.Constraint
	lastIssue int
	lastTi    int32
	lastTlo   int32
	lastWi    int32
	lastValid bool
}

// NewProber returns an empty prober over the compiled plan.
func NewProber(p *Plan) *Prober {
	return &Prober{
		plan:    p,
		scratch: make([]int, p.maxTrees),
		zero:    make([]uint64, p.RowWords),
	}
}

// Reset clears all reservations and recycles the selection arena,
// retaining storage. Selections from before the Reset become invalid.
func (p *Prober) Reset() {
	for i := range p.rows {
		p.rows[i] = 0
	}
	p.chosen = p.chosen[:0]
	p.lastValid = false
}

// Check tests whether the constraint can be satisfied with the operation
// issued at cycle issue, using the AND-of-OR-trees algorithm of §3: each
// OR-tree is scanned in priority order for its first available option,
// each option short-circuits at its first busy probe word, and the scan
// stops at the first OR-tree with no available option. For FormOR
// constraints there is a single tree, so this degenerates to the
// traditional algorithm. Counters accumulate one Attempt, plus the options
// and resource checks (one per probe word) performed. On success nothing
// is reserved until Reserve is called with the returned Selection.
func (p *Prober) Check(con *lowlevel.Constraint, issue int, c *stats.Counters) (Selection, bool) {
	c.Attempts++
	tlo, thi := p.plan.spanFor(con)
	scratch := p.scratch[:thi-tlo]
	for ti := tlo; ti < thi; ti++ {
		olo, ohi := p.plan.treeStart[ti], p.plan.treeStart[ti+1]
		found := -1
		firstWi := int32(-1)
		for oi := olo; oi < ohi; oi++ {
			c.OptionsChecked++
			bw := p.optionProbe(oi, issue, c)
			if bw < 0 {
				found = int(oi - olo)
				break
			}
			if oi == olo {
				firstWi = bw
			}
		}
		if found < 0 {
			c.Conflicts++
			p.lastCon, p.lastIssue = con, issue
			p.lastTi, p.lastTlo = ti, tlo
			p.lastWi = firstWi
			p.lastValid = true
			return Selection{}, false
		}
		scratch[ti-tlo] = found
	}
	return p.commit(con, issue, scratch), true
}

// CheckWindow probes the half-open window of candidate issue cycles
// [lo, hi) in one flat pass, sliding the plan's packed words across the
// reservation rows, and returns the first satisfiable cycle. It is
// accounting-equivalent to calling Check on each cycle in order and
// stopping at the first success — one Attempt per cycle probed, the same
// short-circuits — so batch and serial paths produce identical counters
// as well as identical selections.
func (p *Prober) CheckWindow(con *lowlevel.Constraint, lo, hi int, c *stats.Counters) (Selection, int, bool) {
	tlo, thi := p.plan.spanFor(con)
	scratch := p.scratch[:thi-tlo]
	words := p.plan.words
	optStart, treeStart := p.plan.optStart, p.plan.treeStart
	rows, rowWords, base, nrows := p.rows, p.plan.RowWords, p.base, p.nrows
issue:
	for issue := lo; issue < hi; issue++ {
		c.Attempts++
		for ti := tlo; ti < thi; ti++ {
			found := -1
			for oi := treeStart[ti]; oi < treeStart[ti+1]; oi++ {
				c.OptionsChecked++
				free := true
				for wi := optStart[oi]; wi < optStart[oi+1]; wi++ {
					c.ResourceChecks++
					w := words[wi]
					r := issue + int(w.Time) - base
					if uint(r) < uint(nrows) && rows[r*rowWords+int(w.Widx)]&w.Mask != 0 {
						free = false
						break
					}
				}
				if free {
					found = int(oi - treeStart[ti])
					break
				}
			}
			if found < 0 {
				c.Conflicts++
				continue issue
			}
			scratch[ti-tlo] = found
		}
		return p.commit(con, issue, scratch), issue, true
	}
	return Selection{}, 0, false
}

// commit copies one successful probe's per-tree choices into the arena and
// builds its Selection; the full-capacity slice expression pins the arena
// segment so later appends can never alias it.
func (p *Prober) commit(con *lowlevel.Constraint, issue int, scratch []int) Selection {
	start := len(p.chosen)
	p.chosen = append(p.chosen, scratch...)
	return Selection{Constraint: con, Issue: issue, Chosen: p.chosen[start:len(p.chosen):len(p.chosen)]}
}

// optionProbe walks one option's word span, accounting one resource check
// per word; a probe outside the reservation window is free. It returns the
// index of the first blocking plan word, or -1 if the option is free.
func (p *Prober) optionProbe(opt int32, issue int, c *stats.Counters) int32 {
	words := p.plan.words
	rowWords := p.plan.RowWords
	for wi := p.plan.optStart[opt]; wi < p.plan.optStart[opt+1]; wi++ {
		c.ResourceChecks++
		w := words[wi]
		r := issue + int(w.Time) - p.base
		if uint(r) < uint(p.nrows) && bitset.WordIntersects(p.rows, r*rowWords+int(w.Widx), w.Mask) {
			return wi
		}
	}
	return -1
}

// Reserve applies a successful Selection, growing the reservation window
// as needed; it panics on a double reservation, since the caller must
// have checked first.
func (p *Prober) Reserve(sel Selection) {
	p.lastValid = false
	tlo, _ := p.plan.spanFor(sel.Constraint)
	for i, choice := range sel.Chosen {
		opt := p.plan.treeStart[tlo+int32(i)] + int32(choice)
		for wi := p.plan.optStart[opt]; wi < p.plan.optStart[opt+1]; wi++ {
			w := p.plan.words[wi]
			idx := p.rowIndex(sel.Issue+int(w.Time))*p.plan.RowWords + int(w.Widx)
			if bitset.WordIntersects(p.rows, idx, w.Mask) {
				panic(fmt.Sprintf("probeplan: double reservation at cycle %d", sel.Issue+int(w.Time)))
			}
			bitset.WordOr(p.rows, idx, w.Mask)
		}
	}
}

// Release undoes a previous Reserve (the unscheduling step paper §10 notes
// is straightforward with reservation tables); slots outside the current
// window were never materialized and need no clearing.
func (p *Prober) Release(sel Selection) {
	p.lastValid = false
	tlo, _ := p.plan.spanFor(sel.Constraint)
	for i, choice := range sel.Chosen {
		opt := p.plan.treeStart[tlo+int32(i)] + int32(choice)
		for wi := p.plan.optStart[opt]; wi < p.plan.optStart[opt+1]; wi++ {
			w := p.plan.words[wi]
			r := sel.Issue + int(w.Time) - p.base
			if uint(r) < uint(p.nrows) {
				bitset.WordAndNot(p.rows, r*p.plan.RowWords+int(w.Widx), w.Mask)
			}
		}
	}
}

// Blocker is the one conflict-attribution walk: for a failed Check of
// con at issue it returns the position (within the constraint) of the
// first tree with no available option, the resource blocking that tree's
// highest-priority option, and the blocking usage's time relative to
// issue. Every observation view derives what it reports from these three
// (the trace names the resource and the option's provenance from the
// constraint). It performs no accounting. Right after the failed Check
// the stash makes it one FirstBlocked; otherwise it re-walks the span.
// tree is -1 when the constraint is satisfiable, and res is -1 (time 0)
// when no single busy slot blocks the tree's preferred option.
func (p *Prober) Blocker(con *lowlevel.Constraint, issue int) (tree, res, time int) {
	if p.lastValid && p.lastCon == con && p.lastIssue == issue && p.lastWi >= 0 {
		w := p.plan.words[p.lastWi]
		r := issue + int(w.Time) - p.base
		if uint(r) < uint(p.nrows) {
			row := p.rows[r*p.plan.RowWords : (r+1)*p.plan.RowWords]
			if b := bitset.FirstBlocked(row, int(w.Widx), w.Mask); b >= 0 {
				return int(p.lastTi - p.lastTlo), b, int(w.Time)
			}
		}
	}
	tlo, thi := p.plan.spanFor(con)
	for ti := tlo; ti < thi; ti++ {
		satisfiable := false
		for oi := p.plan.treeStart[ti]; oi < p.plan.treeStart[ti+1]; oi++ {
			if p.optionFree(oi, issue) {
				satisfiable = true
				break
			}
		}
		if !satisfiable {
			res, time, ok := p.optionBlocker(p.plan.treeStart[ti], issue)
			if !ok {
				return int(ti - tlo), -1, 0
			}
			return int(ti - tlo), res, time
		}
	}
	return -1, -1, 0
}

// optionFree is optionProbe without instrumentation (Blocker slow path).
func (p *Prober) optionFree(opt int32, issue int) bool {
	for wi := p.plan.optStart[opt]; wi < p.plan.optStart[opt+1]; wi++ {
		w := p.plan.words[wi]
		r := issue + int(w.Time) - p.base
		if uint(r) < uint(p.nrows) && bitset.WordIntersects(p.rows, r*p.plan.RowWords+int(w.Widx), w.Mask) {
			return false
		}
	}
	return true
}

// optionBlocker returns the first busy (resource, relative time) slot
// blocking the option at issue.
func (p *Prober) optionBlocker(opt int32, issue int) (res, time int, found bool) {
	for wi := p.plan.optStart[opt]; wi < p.plan.optStart[opt+1]; wi++ {
		w := p.plan.words[wi]
		r := issue + int(w.Time) - p.base
		if uint(r) < uint(p.nrows) {
			row := p.rows[r*p.plan.RowWords : (r+1)*p.plan.RowWords]
			if b := bitset.FirstBlocked(row, int(w.Widx), w.Mask); b >= 0 {
				return b, int(w.Time), true
			}
		}
	}
	return 0, 0, false
}

// rowIndex returns the window-relative row for an absolute cycle, growing
// the window as needed: downward by amortized-doubling prepend, upward
// through append's own growth.
func (p *Prober) rowIndex(cycle int) int {
	rw := p.plan.RowWords
	if p.nrows == 0 {
		p.base = cycle
		p.rows = append(p.rows, p.zero...)
		p.nrows = 1
		return 0
	}
	if cycle < p.base {
		grow := p.nrows
		if grow < p.base-cycle {
			grow = p.base - cycle
		}
		fresh := make([]uint64, (grow+p.nrows)*rw)
		copy(fresh[grow*rw:], p.rows)
		p.rows = fresh
		p.base -= grow
		p.nrows += grow
	}
	for cycle >= p.base+p.nrows {
		p.rows = append(p.rows, p.zero...)
		p.nrows++
	}
	return cycle - p.base
}

// Busy reports whether resource res is reserved at cycle (test support).
func (p *Prober) Busy(res, cycle int) bool {
	r := cycle - p.base
	if uint(r) >= uint(p.nrows) {
		return false
	}
	return p.rows[r*p.plan.RowWords+res/bitset.WordBits]&(1<<uint(res%bitset.WordBits)) != 0
}

// AppendReservedSlots appends every (resource, cycle) currently reserved
// to dst and returns the extended slice — the reservation snapshot the
// differential harness compares with the oracle's slots. Passing a buffer
// with spare capacity (dst[:0] of a previous result) makes the snapshot
// allocation-free.
func (p *Prober) AppendReservedSlots(dst [][2]int) [][2]int {
	for r := 0; r < p.nrows; r++ {
		cycle := p.base + r
		row := p.rows[r*p.plan.RowWords : (r+1)*p.plan.RowWords]
		for wi, w := range row {
			for w != 0 {
				dst = append(dst, [2]int{wi*bitset.WordBits + bits.TrailingZeros64(w), cycle})
				w &= w - 1
			}
		}
	}
	return dst
}
