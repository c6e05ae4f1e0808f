// Package modsched implements iterative modulo scheduling (Rau, MICRO-27,
// 1994 — the paper's reference [12]) on top of the compiled MDES: software
// pipelining of a loop body at initiation interval II, on the
// description's probe plan folded modulo II (probeplan.Modulo), with the
// unscheduling (eviction) step that the paper highlights as
// "straightforward with reservation tables ... but unclear ... with
// finite-state automata" (§10).
//
// The paper also notes that "the number of scheduling attempts required
// per operation can increase significantly with the use of more advanced
// scheduling techniques such as iterative modulo scheduling", making the
// MDES transformations more valuable; the modulo benchmarks measure
// exactly that.
package modsched

import (
	"fmt"
	"math/bits"
	"slices"

	"mdes/internal/ir"
	"mdes/internal/lowlevel"
	"mdes/internal/obs"
	"mdes/internal/probeplan"
	"mdes/internal/resctx"
	"mdes/internal/stats"
)

// Dep is a dependence within or across loop iterations:
//
//	issue(To) >= issue(From) + MinDist - Omega*II
//
// Omega is the iteration distance (0 = same iteration).
type Dep struct {
	From, To int
	MinDist  int
	Omega    int
}

// Loop is a candidate for software pipelining: a branch-free body plus its
// loop-carried dependences. Intra-iteration dependences are derived from
// the body's registers and memory references exactly as for list
// scheduling.
type Loop struct {
	Body *ir.Block
	// Carried holds the loop-carried (Omega >= 1) dependences.
	Carried []Dep
}

// Schedule is a modulo schedule: issue times within the flat schedule and
// the achieved initiation interval.
type Schedule struct {
	II    int
	Issue []int
	// Counters accumulates the attempts/options/checks of the search,
	// including work discarded by evictions.
	Counters stats.Counters
	// Evictions counts unscheduled operations (the capability reservation
	// tables retain and automata lose).
	Evictions int
	// TriedIIs records how many candidate IIs were attempted.
	TriedIIs int
}

// Scheduler runs iterative modulo scheduling against one compiled MDES.
//
// The compiled description is shared, immutable data (see
// lowlevel.MDES.Freeze). The folded table is private to the Scheduler,
// which reuses it across candidate IIs and Schedule calls, so a
// Scheduler is single-goroutine but many Schedulers — each with its own
// borrowed resctx.Context — may pipeline loops against the same compiled
// MDES concurrently.
type Scheduler struct {
	mdes *lowlevel.MDES
	cx   *resctx.Context
	// probe is the context tryII probes through: it holds the folded
	// table and shares cx's observation buffer.
	probe resctx.Context
	// Budget bounds total placements per candidate II as a multiple of the
	// operation count (Rau's budget_ratio); default 6.
	Budget int
	// MaxII bounds the search; default 4 * (MII + count).
	MaxII int

	// buf holds the storage a Schedule needs beyond the context's arena,
	// kept across calls so that it grows only for a larger loop.
	buf buffers
}

// buffers are the Scheduler's reusable slices: the loop's dependences,
// one backing for every operation's dependence lists and the lists
// themselves, tryII's per-operation selections, and ResMII's per-resource
// counts.
type buffers struct {
	deps, edges  []Dep
	preds, succs [][]Dep
	sel          []probeplan.Selection
	usage        []int
}

// New returns a modulo scheduler for the compiled description, backed by
// a standalone context that carries only the counters.
func New(m *lowlevel.MDES) *Scheduler {
	return NewWithContext(m, &resctx.Context{})
}

// NewWithContext returns a modulo scheduler over the shared compiled
// description; the search's counters are also accumulated into the
// borrowed context, so pooled contexts aggregate service-wide totals, and
// its probes feed the context's observation buffer. Like
// resctx.Standalone, it freezes m and compiles its probe plan, panicking
// when m cannot be frozen or planned.
func NewWithContext(m *lowlevel.MDES, cx *resctx.Context) *Scheduler {
	mod := probeplan.NewModulo(resctx.FrozenPlan(m), 1)
	return &Scheduler{mdes: m, cx: cx, probe: resctx.Context{Mod: mod}, Budget: 6}
}

// deps builds the full dependence set into the Scheduler's buffer:
// intra-iteration from the body's graph, built on the context's builder,
// plus the loop's carried edges. It resets the context's arena and
// returns the body's operation-table indices carved from it. It refuses
// opcodes the description lacks and, through the builder, out-of-range
// registers.
func (s *Scheduler) deps(l *Loop) ([]Dep, []int, error) {
	n := len(l.Body.Ops)
	s.cx.Arena.Reset()
	opIdxs := s.cx.Arena.Ints(n)
	for i, op := range l.Body.Ops {
		idx, ok := s.mdes.OpIndex[op.Opcode]
		if !ok {
			return nil, nil, fmt.Errorf("modsched: opcode %q not in MDES %s", op.Opcode, s.mdes.MachineName)
		}
		opIdxs[i] = idx
	}
	s.cx.Timing = lowlevel.BlockTiming{M: s.mdes, OpIdxs: opIdxs}
	g, err := s.cx.Builder.Build(l.Body, &s.cx.Timing)
	if err != nil {
		return nil, nil, fmt.Errorf("modsched: %w", err)
	}
	deps := s.buf.deps[:0]
	for _, edges := range g.Succs {
		for _, e := range edges {
			deps = append(deps, Dep{From: e.From, To: e.To, MinDist: e.MinDist})
		}
	}
	for _, d := range l.Carried {
		if d.Omega < 1 {
			return nil, nil, fmt.Errorf("modsched: carried dependence %d->%d has omega %d < 1", d.From, d.To, d.Omega)
		}
		if d.From < 0 || d.From >= n || d.To < 0 || d.To >= n {
			return nil, nil, fmt.Errorf("modsched: carried dependence %d->%d out of range", d.From, d.To)
		}
		deps = append(deps, d)
	}
	s.buf.deps = deps
	return deps, opIdxs, nil
}

// ResMII computes the resource-constrained lower bound on II: for each
// resource, the number of times the body's highest-priority options use it
// (every resource provides one slot per cycle).
func (s *Scheduler) ResMII(l *Loop) int {
	usage := slices.Grow(s.buf.usage[:0], s.mdes.NumResources)[:s.mdes.NumResources]
	clear(usage)
	s.buf.usage = usage
	for _, op := range l.Body.Ops {
		idx, ok := s.mdes.OpIndex[op.Opcode]
		if !ok {
			continue
		}
		con := s.mdes.ConstraintFor(idx, op.Cascaded)
		for _, tree := range con.Trees {
			// The first option is what an uncontended schedule would pick;
			// alternatives only relax the bound, so this is a valid
			// heuristic lower bound when it is the unique choice and an
			// approximation otherwise (as in Rau's formulation).
			best := tree.Options[0]
			if len(tree.Options) > 1 {
				// With alternatives, charge 1/len to each... integral
				// bound: charge the least-used resource only when unique.
				continue
			}
			if best.Masks == nil {
				for _, u := range best.Usages {
					usage[u.Res]++
				}
			}
			// A packed option's usages are the set bits of its masks.
			for _, m := range best.Masks {
				for mask := m.Mask; mask != 0; mask &= mask - 1 {
					usage[int(m.Word)*64+bits.TrailingZeros64(mask)]++
				}
			}
		}
	}
	mii := 1
	for _, n := range usage {
		if n > mii {
			mii = n
		}
	}
	return mii
}

// RecMII computes the recurrence-constrained lower bound: the smallest II
// for which no dependence cycle has positive weight under edge weights
// MinDist - II*Omega (checked with Bellman-Ford on the negated graph).
func RecMII(n int, deps []Dep, maxII int) int {
	dist := make([]int64, n)
	for ii := 1; ii <= maxII; ii++ {
		if !hasPositiveCycle(dist, deps, ii) {
			return ii
		}
	}
	return maxII
}

// hasPositiveCycle reports whether the dependences have a positive cycle
// at ii, using dist (one entry per operation) as scratch.
func hasPositiveCycle(dist []int64, deps []Dep, ii int) bool {
	// Longest-path relaxation; a positive cycle keeps relaxing after n
	// rounds.
	clear(dist)
	n := len(dist)
	for round := 0; round < n; round++ {
		changed := false
		for _, d := range deps {
			w := int64(d.MinDist - ii*d.Omega)
			if dist[d.From]+w > dist[d.To] {
				dist[d.To] = dist[d.From] + w
				changed = true
			}
		}
		if !changed {
			return false
		}
	}
	// One more round: any further relaxation proves a positive cycle.
	for _, d := range deps {
		if dist[d.From]+int64(d.MinDist-ii*d.Omega) > dist[d.To] {
			return true
		}
	}
	return false
}

// MII returns the initiation-interval lower bound max(ResMII, RecMII).
func (s *Scheduler) MII(l *Loop) (int, error) {
	deps, _, err := s.deps(l)
	if err != nil {
		return 0, err
	}
	return s.mii(l, deps), nil
}

// mii is MII over the loop's already-built dependences.
func (s *Scheduler) mii(l *Loop, deps []Dep) int {
	res := s.ResMII(l)
	return max(res, RecMII(len(l.Body.Ops), deps, res+len(l.Body.Ops)*8+64))
}

// Schedule software-pipelines the loop, searching IIs upward from MII.
// Every exit emits the loop's one BlockDone event, with the achieved II
// as its length (-1 when no schedule was found).
func (s *Scheduler) Schedule(l *Loop) (*Schedule, error) {
	result, err := s.schedule(l)
	if err != nil {
		s.cx.Obs.BlockDone(obs.PhaseModulo, 0, len(l.Body.Ops), -1, result.Counters)
		return nil, err
	}
	s.cx.Obs.BlockDone(obs.PhaseModulo, 0, len(l.Body.Ops), result.II, result.Counters)
	s.cx.Counters.Add(result.Counters)
	return result, nil
}

// schedule is Schedule's body; every exit returns the search's Schedule
// (with its counters so far).
func (s *Scheduler) schedule(l *Loop) (*Schedule, error) {
	result := &Schedule{}
	if len(l.Body.Ops) == 0 {
		result.II = 1
		return result, nil
	}
	for _, op := range l.Body.Ops {
		if op.Branch {
			return result, fmt.Errorf("modsched: loop body must be branch-free (op %d)", op.ID)
		}
	}
	deps, opIdxs, err := s.deps(l)
	if err != nil {
		return result, err
	}
	mii := s.mii(l, deps)
	maxII := s.MaxII
	if maxII == 0 {
		maxII = 4 * (mii + len(l.Body.Ops))
	}
	s.probe.Observe(s.cx.Obs)
	st := s.newLoopState(opIdxs, deps)
	for ii := mii; ii <= maxII; ii++ {
		result.TriedIIs++
		s.probe.Mod.Configure(ii)
		if s.tryII(l, &st, ii, result) {
			result.II = ii
			result.Issue = slices.Clone(st.issue)
			return result, nil
		}
	}
	return result, fmt.Errorf("modsched: no schedule found up to II=%d", maxII)
}

// loopState is one Schedule's state, built once for every candidate II:
// the body's operation-table indices, the height priority and each
// operation's incoming and outgoing dependences, which do not depend on
// II, and tryII's per-operation scratch, which tryII resets for each II.
// Its slices come from the context's arena and the Scheduler's buffers.
type loopState struct {
	opIdxs, height                 []int
	preds, succs                   [][]Dep
	issue, lastTried, list         []int
	placed, neverScheduled, inList []bool
	sel                            []probeplan.Selection
}

// newLoopState carves and fills a loopState for a loop of len(opIdxs)
// operations. Each operation's dependence lists are windows of one
// backing, filled in dependence order.
func (s *Scheduler) newLoopState(opIdxs []int, deps []Dep) loopState {
	n := len(opIdxs)
	ar, b := &s.cx.Arena, &s.buf
	st := loopState{
		opIdxs: opIdxs, height: heights(ar.Ints(n), deps),
		issue: ar.Ints(n), lastTried: ar.Ints(n), list: ar.Ints(n),
		placed: ar.Bools(n), neverScheduled: ar.Bools(n), inList: ar.Bools(n),
	}
	b.edges = slices.Grow(b.edges[:0], 2*len(deps))[:2*len(deps)]
	b.preds = slices.Grow(b.preds[:0], n)[:n]
	b.succs = slices.Grow(b.succs[:0], n)[:n]
	b.sel = slices.Grow(b.sel[:0], n)[:n]
	npreds, nsuccs := ar.Ints(n), ar.Ints(n)
	for _, d := range deps {
		npreds[d.To]++
		nsuccs[d.From]++
	}
	off := 0
	for i := range b.preds {
		b.preds[i], off = b.edges[off:off:off+npreds[i]], off+npreds[i]
	}
	for i := range b.succs {
		b.succs[i], off = b.edges[off:off:off+nsuccs[i]], off+nsuccs[i]
	}
	for _, d := range deps {
		b.preds[d.To] = append(b.preds[d.To], d)
		b.succs[d.From] = append(b.succs[d.From], d)
	}
	st.preds, st.succs, st.sel = b.preds, b.succs, b.sel
	return st
}

// tryII is one iteration of Rau's algorithm at a fixed II, on the folded
// table Configure has just cleared; on success st.issue holds the
// schedule. Every probe goes through the probe helper, so each probe of a
// candidate slot is one scheduling attempt in the modulo phase — the
// inflation the paper attributes to iterative modulo scheduling shows up
// directly in that phase's counters.
func (s *Scheduler) tryII(l *Loop, st *loopState, ii int, out *Schedule) bool {
	probe, mod := &s.probe, s.probe.Mod
	n := len(l.Body.Ops)
	budget := s.Budget * n
	height, preds, succs := st.height, st.preds, st.succs
	issue, placed, sel, neverScheduled, lastTried := st.issue, st.placed, st.sel, st.neverScheduled, st.lastTried

	// Worklist ordered by (height desc, index asc), holding at most n
	// operations, so it never outgrows its carve.
	inList, list := st.inList, st.list[:0]
	push := func(i int) {
		if !inList[i] {
			inList[i] = true
			list = append(list, i)
		}
	}
	pop := func() int {
		best := -1
		for _, i := range list {
			if best < 0 || height[i] > height[best] || (height[i] == height[best] && i < best) {
				best = i
			}
		}
		// Remove best.
		for k, i := range list {
			if i == best {
				list = append(list[:k], list[k+1:]...)
				break
			}
		}
		inList[best] = false
		return best
	}
	for i := 0; i < n; i++ {
		placed[i], neverScheduled[i], inList[i] = false, true, false
		push(i)
	}

	for budget > 0 && len(list) > 0 {
		opIdx := pop()
		budget--

		// Earliest start from PLACED predecessors.
		estart := 0
		for _, d := range preds[opIdx] {
			if d.From == opIdx || !placed[d.From] {
				continue
			}
			if v := issue[d.From] + d.MinDist - d.Omega*ii; v > estart {
				estart = v
			}
		}

		op := l.Body.Ops[opIdx]
		con := s.mdes.ConstraintFor(st.opIdxs[opIdx], op.Cascaded)

		// Try II consecutive slots; each try is a scheduling attempt.
		chosen := -1
		var chosenSel probeplan.Selection
		for t := estart; t < estart+ii; t++ {
			if se, ok, _ := probe.Probe(obs.PhaseModulo, opIdx, op.Opcode, con, t, &out.Counters); ok {
				chosen, chosenSel = t, se
				break
			}
		}
		if chosen < 0 {
			// Forced placement with eviction (the unscheduling step).
			chosen = estart
			if !neverScheduled[opIdx] && chosen <= lastTried[opIdx] {
				chosen = lastTried[opIdx] + 1
			}
			for _, v := range mod.Evict(con, chosen) {
				if v != opIdx && placed[v] {
					placed[v] = false
					out.Evictions++
					out.Counters.Backtracks++
					push(v)
				}
			}
			se, ok, _ := probe.Probe(obs.PhaseModulo, opIdx, op.Opcode, con, chosen, &out.Counters)
			if !ok {
				// The constraint conflicts with itself at this II (modulo
				// self-collision); this II is infeasible for this op.
				return false
			}
			chosenSel = se
		}
		mod.Reserve(chosenSel, opIdx)
		issue[opIdx] = chosen
		sel[opIdx] = chosenSel
		placed[opIdx] = true
		neverScheduled[opIdx] = false
		lastTried[opIdx] = chosen

		// Unschedule placed ops whose dependences the new placement breaks.
		for _, d := range succs[opIdx] {
			if d.To == opIdx || !placed[d.To] {
				continue
			}
			if issue[d.To] < chosen+d.MinDist-d.Omega*ii {
				mod.Release(sel[d.To], d.To)
				placed[d.To] = false
				out.Evictions++
				out.Counters.Backtracks++
				push(d.To)
			}
		}
		for _, d := range preds[opIdx] {
			if d.From == opIdx || !placed[d.From] {
				continue
			}
			if chosen < issue[d.From]+d.MinDist-d.Omega*ii {
				mod.Release(sel[d.From], d.From)
				placed[d.From] = false
				out.Evictions++
				out.Counters.Backtracks++
				push(d.From)
			}
		}
	}
	return len(list) == 0
}

// heights computes into h (zeroed, one entry per operation) a priority
// from the acyclic subgraph (edges with positive slack direction),
// approximating Rau's height-based priority, and returns h.
func heights(h []int, deps []Dep) []int {
	n := len(h)
	for round := 0; round < n; round++ {
		changed := false
		for _, d := range deps {
			if d.Omega > 0 {
				continue // carried edges do not feed the acyclic height
			}
			if v := h[d.To] + d.MinDist; v > h[d.From] {
				h[d.From] = v
				changed = true
			}
		}
		if !changed {
			break
		}
	}
	return h
}
