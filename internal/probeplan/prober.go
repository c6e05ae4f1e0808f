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
// Selections returned by Check borrow their Chosen slices from an
// append-only arena owned by the Prober and stay valid until the next
// Reset, so a caller may hold several across probes before reserving or
// releasing them. Place, the probe the schedulers, the query layer and
// the differential replay issue, copies nothing: it reserves what it
// just probed and hands back its per-tree scratch. Reset recycles the
// arena; no steady-state Check or Place allocates. An attached
// stats.Tally (Tally) receives each probe's per-constraint break-down.
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
	// per-tree choices, copied into the arena only by a successful Check,
	// and picked the same choices as plan option indices, the form
	// reserveOptions takes (Place reserves them as probed; Reserve first
	// converts its Selection into them). zero is a permanently-zero row
	// used to extend the window upward.
	chosen  []int
	scratch []int
	picked  []int32
	zero    []uint64

	// The most recent failed Check or Place stashes the cycle it probed,
	// which tree it died on and the plan word that blocked that tree's
	// highest-priority option, so Blocked attributes the failure with one
	// AND on the stashed word. The stash is four stores on the
	// already-taken failure branch, costing the observation-off hot path
	// nothing measurable.
	lastIssue int
	lastTi    int32
	lastTlo   int32
	lastWi    int32

	// tally, when set, receives every probe's per-constraint break-down
	// (stats.Tally): the observation views' counting share, kept from the
	// values the probe loop already holds.
	tally *stats.Tally
}

// NewProber returns an empty prober over the compiled plan.
func NewProber(p *Plan) *Prober {
	return &Prober{
		plan:    p,
		scratch: make([]int, p.maxTrees),
		picked:  make([]int32, p.maxTrees),
		zero:    make([]uint64, p.RowWords),
	}
}

// Tally makes t receive the break-down of every later probe (nil
// stops it): its constraint's attempt, options and conflict, the plan
// option chosen in each tree of a success, and for a failure the plan
// tree it died on and the resource Blocked names. A plan's option and
// tree indices are the description's option and tree slots.
func (p *Prober) Tally(t *stats.Tally) { p.tally = t }

// Reset clears all reservations and recycles the selection arena,
// retaining storage. Selections from before the Reset become invalid.
func (p *Prober) Reset() {
	for i := range p.rows {
		p.rows[i] = 0
	}
	p.chosen = p.chosen[:0]
}

// Check tests whether the constraint can be satisfied with the operation
// issued at cycle issue, using the AND-of-OR-trees algorithm of §3 (see
// probe). Counters accumulate one Attempt, plus the options and resource
// checks (one per probe word) performed. On success nothing is reserved
// until Reserve is called with the returned Selection, whose choices are
// copied into the selection arena.
func (p *Prober) Check(con *lowlevel.Constraint, issue int, c *stats.Counters) (Selection, bool) {
	n, opts, ok := p.probe(con, issue, c)
	if p.tally != nil {
		p.tallyProbe(con.Index, n, opts, ok)
	}
	if !ok {
		return Selection{}, false
	}
	return commit(&p.chosen, con, issue, p.scratch[:n]), true
}

// Place is Check followed by Reserve in one walk: on success it reserves
// the chosen options' words straight from the spans the probe just
// walked, accounting exactly as Check, and returns the option chosen in
// each tree. The choices live in the prober's scratch and stay valid
// until its next Check or Place. A failed Place reserves nothing. Place
// also returns the options the attempt checked, so a caller that needs
// only those (resctx.Context.Place on an attempt no view records) makes
// this one call.
func (p *Prober) Place(con *lowlevel.Constraint, issue int, c *stats.Counters) ([]int, bool, int64) {
	n, opts, ok := p.probe(con, issue, c)
	if !ok {
		if p.tally != nil {
			p.tallyProbe(con.Index, n, opts, false)
		}
		return nil, false, opts
	}
	if t := p.tally; t != nil {
		// tallyProbe's success share, inline: a placement is the
		// schedulers' common case.
		t.Succeeded(con.Index, opts, p.picked[:n])
	}
	p.reserveOptions(p.picked[:n], issue)
	return p.scratch[:n:n], true, opts
}

// probe is the one probing loop behind Check and Place. Each OR-tree is
// scanned in priority order for its first available option, each option
// short-circuits at its first busy probe word, and the scan stops at the
// first OR-tree with no available option; for FormOR constraints there is
// a single tree, so this degenerates to the traditional algorithm. On
// success tree i's choice is p.scratch[i] (within the tree) and
// p.picked[i] (within the plan) for the returned tree count; on failure
// the stash names the blocking word. The counters are added once, and
// the options checked are also returned.
func (p *Prober) probe(con *lowlevel.Constraint, issue int, c *stats.Counters) (int, int64, bool) {
	pl := p.plan
	tlo, thi := pl.spanFor(con)
	words, optStart, rowWords := pl.words, pl.optStart, pl.RowWords
	rows, base, nrows := p.rows, p.base, p.nrows
	scratch, picked := p.scratch[:thi-tlo], p.picked[:thi-tlo]
	var opts, checks int64
	c.Attempts++
	for ti := tlo; ti < thi; ti++ {
		olo, ohi := pl.treeStart[ti], pl.treeStart[ti+1]
		firstWi := int32(-1)
		oi := olo
	options:
		for ; oi < ohi; oi++ {
			opts++
			wlo, whi := optStart[oi], optStart[oi+1]
			for wi := wlo; wi < whi; wi++ {
				w := words[wi]
				r := issue + int(w.Time) - base
				if uint(r) < uint(nrows) && bitset.WordIntersects(rows, r*rowWords+int(w.Widx), w.Mask) {
					checks += int64(wi - wlo + 1)
					if oi == olo {
						firstWi = wi
					}
					continue options
				}
			}
			checks += int64(whi - wlo)
			break
		}
		if oi == ohi {
			c.OptionsChecked += opts
			c.ResourceChecks += checks
			c.Conflicts++
			p.lastIssue = issue
			p.lastTi, p.lastTlo = ti, tlo
			p.lastWi = firstWi
			return 0, opts, false
		}
		scratch[ti-tlo] = int(oi - olo)
		picked[ti-tlo] = oi
	}
	c.OptionsChecked += opts
	c.ResourceChecks += checks
	return int(thi - tlo), opts, true
}

// tallyProbe tallies the probe of constraint ci just made, which checked
// opts options: on success the plan option picked in each of its n
// trees, on failure the plan tree it died on and the resource Blocked
// reads from the stash (a plan option or tree index is its slot, see
// Tally). Out of line, so the probe loop's code is the same whether a
// tally is attached or not; Place inlines the success share.
func (p *Prober) tallyProbe(ci, n int, opts int64, ok bool) {
	if ok {
		p.tally.Succeeded(ci, opts, p.picked[:n])
		return
	}
	_, res, _ := p.Blocked()
	p.tally.Failed(ci, opts, int(p.lastTi), res)
}

// commit copies one successful probe's per-tree choices into the
// selection arena and builds its Selection; the full-capacity slice
// expression pins the arena segment so later appends can never alias it.
func commit(arena *[]int, con *lowlevel.Constraint, issue int, scratch []int) Selection {
	start := len(*arena)
	*arena = append(*arena, scratch...)
	return Selection{Constraint: con, Issue: issue, Chosen: (*arena)[start:len(*arena):len(*arena)]}
}

// Reserve applies a successful Selection, growing the reservation window
// as needed; it panics on a double reservation, since the caller must
// have checked first.
func (p *Prober) Reserve(sel Selection) {
	tlo, _ := p.plan.spanFor(sel.Constraint)
	picked := p.picked[:len(sel.Chosen)]
	for i, choice := range sel.Chosen {
		picked[i] = p.plan.treeStart[tlo+int32(i)] + int32(choice)
	}
	p.reserveOptions(picked, sel.Issue)
}

// reserveOptions reserves the words of the plan options opts at issue,
// growing the window as needed, and panics on a word already held: two
// trees of one constraint whose choices overlap, or a selection reserved
// twice.
func (p *Prober) reserveOptions(opts []int32, issue int) {
	words, optStart, rowWords := p.plan.words, p.plan.optStart, p.plan.RowWords
	for _, oi := range opts {
		for wi := optStart[oi]; wi < optStart[oi+1]; wi++ {
			w := words[wi]
			r := issue + int(w.Time) - p.base
			if uint(r) >= uint(p.nrows) {
				r = p.rowIndex(issue + int(w.Time))
			}
			idx := r*rowWords + int(w.Widx)
			if bitset.WordIntersects(p.rows, idx, w.Mask) {
				panic(fmt.Sprintf("probeplan: double reservation at cycle %d", issue+int(w.Time)))
			}
			bitset.WordOr(p.rows, idx, w.Mask)
		}
	}
}

// Release undoes a previous Reserve (the unscheduling step paper §10 notes
// is straightforward with reservation tables); slots outside the current
// window were never materialized and need no clearing.
func (p *Prober) Release(sel Selection) {
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

// Blocked is the one conflict attribution, for the Check or Place that
// just failed: the position (within the constraint) of the first tree
// with no available option, the resource blocking that tree's
// highest-priority option, and the blocking usage's time relative to the
// probed cycle. Every observation view derives what it reports from
// these three (the trace names the resource and the option's provenance
// from the constraint). The failing probe found the stashed word busy,
// so the answer is one AND and one trailing-zero count; res is -1 (time
// 0) for a tree with no options. Anything that changes the window after
// the failure, or a successful probe, leaves the answer meaningless.
func (p *Prober) Blocked() (tree, res, time int) {
	tree = int(p.lastTi - p.lastTlo)
	if p.lastWi < 0 {
		return tree, -1, 0
	}
	w := p.plan.words[p.lastWi]
	v := p.rows[(p.lastIssue+int(w.Time)-p.base)*p.plan.RowWords+int(w.Widx)] & w.Mask
	return tree, int(w.Widx)*bitset.WordBits + bits.TrailingZeros64(v), int(w.Time)
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
