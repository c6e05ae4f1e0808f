// Package modsched implements iterative modulo scheduling (Rau, MICRO-27,
// 1994 — the paper's reference [12]) on top of the compiled MDES: software
// pipelining of a loop body at initiation interval II, with a modulo
// resource-usage map and the unscheduling (eviction) step that the paper
// highlights as "straightforward with reservation tables ... but unclear
// ... with finite-state automata" (§10).
//
// The paper also notes that "the number of scheduling attempts required
// per operation can increase significantly with the use of more advanced
// scheduling techniques such as iterative modulo scheduling", making the
// MDES transformations more valuable; the modulo benchmarks measure
// exactly that.
package modsched

import (
	"fmt"
	"time"

	"mdes/internal/check"
	"mdes/internal/ir"
	"mdes/internal/lowlevel"
	"mdes/internal/obs"
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

// mdesTiming adapts the compiled MDES's operand-level distances.
type mdesTiming struct{ m *lowlevel.MDES }

func (t mdesTiming) FlowDist(producer, consumer *ir.Operation) int {
	pi, pok := t.m.OpIndex[producer.Opcode]
	ci, cok := t.m.OpIndex[consumer.Opcode]
	if !pok || !cok {
		return 1
	}
	return t.m.FlowDistance(pi, ci)
}

func (t mdesTiming) Latency(opcode string) int {
	if idx, ok := t.m.OpIndex[opcode]; ok {
		return t.m.Operations[idx].Latency
	}
	return 1
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
// lowlevel.MDES.Freeze). The modulo RU map is private to each Schedule
// call, so a Scheduler is single-goroutine but many Schedulers — each
// with its own borrowed resctx.Context — may pipeline loops against the
// same compiled MDES concurrently.
type Scheduler struct {
	mdes *lowlevel.MDES
	cx   *resctx.Context
	// Budget bounds total placements per candidate II as a multiple of the
	// operation count (Rau's budget_ratio); default 6.
	Budget int
	// MaxII bounds the search; default 4 * (MII + count).
	MaxII int
}

// New returns a modulo scheduler for the compiled description, backed by
// a standalone context. The modulo map is private to each Schedule call,
// so the context carries only the counters (and, when borrowed from a
// pool, the observability buffer).
func New(m *lowlevel.MDES) *Scheduler {
	return NewWithContext(m, &resctx.Context{})
}

// NewWithContext returns a modulo scheduler over the shared compiled
// description; the search's counters are also accumulated into the
// borrowed context, so pooled contexts aggregate service-wide totals.
func NewWithContext(m *lowlevel.MDES, cx *resctx.Context) *Scheduler {
	return &Scheduler{mdes: m, cx: cx, Budget: 6}
}

// NewWithKind returns a modulo scheduler for a session configured with the
// given checker backend, refusing backends that cannot unschedule:
// iterative modulo scheduling evicts and replaces placements, which needs
// Capabilities.CanRelease — "straightforward with reservation tables ...
// but unclear ... with finite-state automata" (§10). The modulo map itself
// is always the bit-packed check.Modulo; the kind only gates eligibility.
func NewWithKind(m *lowlevel.MDES, cx *resctx.Context, kind check.Kind) (*Scheduler, error) {
	if caps := check.Caps(kind); !caps.CanRelease {
		return nil, fmt.Errorf("modsched: the %s backend cannot release reservations; iterative modulo scheduling requires unscheduling (paper §10)", caps.Backend)
	}
	return NewWithContext(m, cx), nil
}

// deps builds the full dependence set: intra-iteration from the IR graph
// plus the loop's carried edges.
func (s *Scheduler) deps(l *Loop) ([]Dep, error) {
	g := ir.BuildGraphTiming(l.Body, mdesTiming{m: s.mdes})
	var deps []Dep
	for _, edges := range g.Succs {
		for _, e := range edges {
			deps = append(deps, Dep{From: e.From, To: e.To, MinDist: e.MinDist})
		}
	}
	n := len(l.Body.Ops)
	for _, d := range l.Carried {
		if d.Omega < 1 {
			return nil, fmt.Errorf("modsched: carried dependence %d->%d has omega %d < 1", d.From, d.To, d.Omega)
		}
		if d.From < 0 || d.From >= n || d.To < 0 || d.To >= n {
			return nil, fmt.Errorf("modsched: carried dependence %d->%d out of range", d.From, d.To)
		}
		deps = append(deps, d)
	}
	return deps, nil
}

// ResMII computes the resource-constrained lower bound on II: for each
// resource, the number of times the body's highest-priority options use it
// (every resource provides one slot per cycle).
func (s *Scheduler) ResMII(l *Loop) int {
	usage := map[int32]int{}
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
			for _, u := range best.ExpandedUsages() {
				usage[u.Res]++
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
	for ii := 1; ii <= maxII; ii++ {
		if !hasPositiveCycle(n, deps, ii) {
			return ii
		}
	}
	return maxII
}

func hasPositiveCycle(n int, deps []Dep, ii int) bool {
	// Longest-path relaxation; a positive cycle keeps relaxing after n
	// rounds.
	dist := make([]int64, n)
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
	deps, err := s.deps(l)
	if err != nil {
		return 0, err
	}
	res := s.ResMII(l)
	rec := RecMII(len(l.Body.Ops), deps, res+len(l.Body.Ops)*8+64)
	if rec > res {
		return rec, nil
	}
	return res, nil
}

// Schedule software-pipelines the loop, searching IIs upward from MII.
func (s *Scheduler) Schedule(l *Loop) (*Schedule, error) {
	if len(l.Body.Ops) == 0 {
		return &Schedule{II: 1}, nil
	}
	for _, op := range l.Body.Ops {
		if op.Branch {
			return nil, fmt.Errorf("modsched: loop body must be branch-free (op %d)", op.ID)
		}
		if _, ok := s.mdes.OpIndex[op.Opcode]; !ok {
			return nil, fmt.Errorf("modsched: opcode %q not in MDES %s", op.Opcode, s.mdes.MachineName)
		}
	}
	deps, err := s.deps(l)
	if err != nil {
		return nil, err
	}
	mii, err := s.MII(l)
	if err != nil {
		return nil, err
	}
	maxII := s.MaxII
	if maxII == 0 {
		maxII = 4 * (mii + len(l.Body.Ops))
	}
	result := &Schedule{}
	// One bit-packed modulo map serves the whole II search; Configure
	// clears it and grows rows as II increases.
	mm := check.NewModulo(s.mdes.NumResources, mii)
	for ii := mii; ii <= maxII; ii++ {
		result.TriedIIs++
		mm.Configure(ii)
		if s.tryII(mm, l, deps, ii, result) {
			result.II = ii
			s.cx.Counters.Add(result.Counters)
			if s.cx.Obs != nil {
				s.cx.Obs.Backtrack(obs.PhaseModulo, result.Counters.Backtracks)
			}
			return result, nil
		}
	}
	return nil, fmt.Errorf("modsched: no schedule found up to II=%d", maxII)
}

// attempt performs one instrumented modulo-map check: the paper's
// counters always (into c), plus per-class PhaseModulo metrics when the
// borrowed context carries an obs.Local. Each probe of a candidate slot
// is one scheduling attempt — the inflation the paper attributes to
// iterative modulo scheduling shows up directly in this phase's counters.
func (s *Scheduler) attempt(mm *check.Modulo, classIdx int, con *lowlevel.Constraint, issue int, c *stats.Counters) (check.Selection, bool) {
	local := s.cx.Obs
	if local == nil {
		return mm.Check(con, issue, c)
	}
	var t0 time.Time
	timed := local.SampleTime()
	if timed {
		t0 = time.Now()
	}
	beforeOpts := c.OptionsChecked
	beforeChecks := c.ResourceChecks
	se, ok := mm.Check(con, issue, c)
	ns := int64(-1)
	if timed {
		ns = time.Since(t0).Nanoseconds()
	}
	local.Attempt(obs.PhaseModulo, classIdx,
		c.OptionsChecked-beforeOpts, c.ResourceChecks-beforeChecks, ns, ok)
	return se, ok
}

// tryII is one iteration of Rau's algorithm at a fixed II.
func (s *Scheduler) tryII(mm *check.Modulo, l *Loop, deps []Dep, ii int, out *Schedule) bool {
	n := len(l.Body.Ops)
	budget := s.Budget * n

	// Height-based priority from the dependence set (acyclic part).
	height := heights(n, deps, ii)

	issue := make([]int, n)
	placed := make([]bool, n)
	sel := make([]check.Selection, n)
	neverScheduled := make([]bool, n)
	for i := range neverScheduled {
		neverScheduled[i] = true
	}

	preds := make([][]Dep, n)
	succs := make([][]Dep, n)
	for _, d := range deps {
		preds[d.To] = append(preds[d.To], d)
		succs[d.From] = append(succs[d.From], d)
	}

	// Worklist ordered by (height desc, index asc).
	inList := make([]bool, n)
	var list []int
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
		push(i)
	}

	lastTried := make([]int, n)
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
		mdIdx := s.mdes.OpIndex[op.Opcode]
		con := s.mdes.ConstraintFor(mdIdx, op.Cascaded)
		classIdx := s.mdes.ConstraintIndexFor(mdIdx, op.Cascaded)

		// Try II consecutive slots; each try is a scheduling attempt.
		chosen := -1
		var chosenSel check.Selection
		if s.cx.Obs == nil {
			// Batch fast path: one CheckWindow pass over the II-wide
			// window, accounting-equivalent to the serial loop below and
			// allocation-free on failed cycles.
			if se, at, ok := mm.CheckWindow(con, estart, estart+ii, &out.Counters); ok {
				chosen = at
				chosenSel = se
			}
		} else {
			for t := estart; t < estart+ii; t++ {
				se, ok := s.attempt(mm, classIdx, con, t, &out.Counters)
				if ok {
					chosen = t
					chosenSel = se
					break
				}
			}
		}
		if chosen < 0 {
			// Forced placement with eviction (the unscheduling step).
			chosen = estart
			if !neverScheduled[opIdx] && chosen <= lastTried[opIdx] {
				chosen = lastTried[opIdx] + 1
			}
			evicted := mm.EvictConflicts(con, chosen)
			for _, v := range evicted {
				if v != opIdx && placed[v] {
					placed[v] = false
					out.Evictions++
					out.Counters.Backtracks++
					push(v)
				}
			}
			se, ok := s.attempt(mm, classIdx, con, chosen, &out.Counters)
			if !ok {
				// The constraint conflicts with itself at this II (modulo
				// self-collision); this II is infeasible for this op.
				return false
			}
			chosenSel = se
		}
		mm.ReserveFor(chosenSel, int32(opIdx))
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
				mm.ReleaseFor(sel[d.To], int32(d.To))
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
				mm.ReleaseFor(sel[d.From], int32(d.From))
				placed[d.From] = false
				out.Evictions++
				out.Counters.Backtracks++
				push(d.From)
			}
		}
	}
	if len(list) > 0 {
		return false
	}
	out.Issue = issue
	return true
}

// heights computes a priority from the acyclic subgraph (edges with
// positive slack direction), approximating Rau's height-based priority.
func heights(n int, deps []Dep, ii int) []int {
	h := make([]int, n)
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
