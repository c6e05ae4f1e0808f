// Package query gives compiler modules other than the scheduler access to
// machine-description information — the paper's introduction argues that
// ILP transformations such as predication and height reduction "also need
// to use execution constraints to avoid over-subscription of processor
// resources", and that most modules forgo the MDES only because no
// efficient query interface exists. This package is that interface, built
// on the compiled low-level representation.
package query

import (
	"fmt"
	"sort"

	"mdes/internal/lowlevel"
	"mdes/internal/obs"
	"mdes/internal/probeplan"
	"mdes/internal/resctx"
	"mdes/internal/stats"
)

// Q answers execution-constraint queries against one compiled MDES.
//
// The compiled description is shared, immutable data (see
// lowlevel.MDES.Freeze); all mutable probe state lives in the borrowed
// resctx.Context. A Q therefore must not be used from more than one
// goroutine at a time, but any number of Qs — each with its own borrowed
// Context — may query the same compiled MDES concurrently.
type Q struct {
	mdes *lowlevel.MDES
	cx   *resctx.Context
}

// New freezes the compiled description and returns a query interface over
// it, backed by a standalone probe-plan context (resctx.Standalone; it
// panics when the description cannot be frozen or planned). For
// concurrent use over a shared description, borrow per-goroutine contexts
// from a resctx.Pool and use NewWithContext (or mdes.Engine.Query).
func New(m *lowlevel.MDES) *Q {
	return NewWithContext(m, resctx.Standalone(m))
}

// NewWithContext returns a query interface over the shared compiled
// description using the borrowed context for all mutable probe state.
func NewWithContext(m *lowlevel.MDES, cx *resctx.Context) *Q {
	return &Q{mdes: m, cx: cx}
}

// Close releases the underlying context back to its pool (a no-op for
// standalone contexts). The Q must not be used after Close.
func (q *Q) Close() {
	q.cx.Release()
	q.cx = nil
}

// Counters returns the instrumentation accumulated by this Q's probes
// since its context was borrowed.
func (q *Q) Counters() stats.Counters { return q.cx.Counters }

// check performs one instrumented constraint probe for the operation at
// opIdx issuing at cycle issue through the context's probe helper: every
// query probe is one scheduling attempt in the paper's accounting, so the
// observation views attribute it exactly like a scheduler attempt, under
// the query phase and outside any block.
func (q *Q) check(opIdx, issue int) (probeplan.Selection, bool) {
	sel, ok, _ := q.cx.Probe(obs.PhaseQuery, -1, "", q.mdes.ConstraintFor(opIdx, false), issue, &q.cx.Counters)
	return sel, ok
}

// Latency returns an opcode's result latency.
func (q *Q) Latency(opcode string) (int, error) {
	idx, ok := q.mdes.OpIndex[opcode]
	if !ok {
		return 0, fmt.Errorf("query: unknown opcode %q", opcode)
	}
	return q.mdes.Operations[idx].Latency, nil
}

// MustLatency is Latency for known-good opcodes; it panics on unknown
// names (a programming error in the caller's opcode tables).
func (q *Q) MustLatency(opcode string) int {
	lat, err := q.Latency(opcode)
	if err != nil {
		panic(err)
	}
	return lat
}

// FlowDistance returns the dependence distance a flow edge from producer
// to consumer must respect (latency, source sample time, bypasses).
func (q *Q) FlowDistance(producer, consumer string) (int, error) {
	pi, ok := q.mdes.OpIndex[producer]
	if !ok {
		return 0, fmt.Errorf("query: unknown opcode %q", producer)
	}
	ci, ok := q.mdes.OpIndex[consumer]
	if !ok {
		return 0, fmt.Errorf("query: unknown opcode %q", consumer)
	}
	return q.mdes.FlowDistance(pi, ci), nil
}

// CanIssueTogether reports whether all the given opcodes can issue in one
// cycle on an otherwise idle machine — the primary over-subscription probe
// for if-conversion and height reduction: merging two paths is only
// profitable if the merged cycle's operations actually fit.
func (q *Q) CanIssueTogether(opcodes ...string) (bool, error) {
	q.cx.ResetReservations()
	defer q.cx.ResetReservations()
	for _, opc := range opcodes {
		idx, ok := q.mdes.OpIndex[opc]
		if !ok {
			return false, fmt.Errorf("query: unknown opcode %q", opc)
		}
		sel, ok2 := q.check(idx, 0)
		if !ok2 {
			return false, nil
		}
		q.cx.Reserve(sel)
	}
	return true, nil
}

// MaxPerCycle returns how many instances of an opcode can issue in a
// single cycle (bounded by limit to keep pathological descriptions cheap).
func (q *Q) MaxPerCycle(opcode string, limit int) (int, error) {
	idx, ok := q.mdes.OpIndex[opcode]
	if !ok {
		return 0, fmt.Errorf("query: unknown opcode %q", opcode)
	}
	q.cx.ResetReservations()
	defer q.cx.ResetReservations()
	n := 0
	for n < limit {
		sel, ok := q.check(idx, 0)
		if !ok {
			break
		}
		q.cx.Reserve(sel)
		n++
	}
	return n, nil
}

// MinIssueDistance returns the smallest non-negative issue separation t at
// which an instance of `second` can follow an instance of `first` without
// a resource conflict, assuming both greedily pick their highest-priority
// available options on an otherwise idle machine. For fully pipelined
// operations this is 0 or 1; for unpipelined units (divide, the Pentium's
// non-pairable ops) it exposes the structural hazard distance other
// modules need for height estimates.
func (q *Q) MinIssueDistance(first, second string, limit int) (int, error) {
	fi, ok := q.mdes.OpIndex[first]
	if !ok {
		return 0, fmt.Errorf("query: unknown opcode %q", first)
	}
	si, ok := q.mdes.OpIndex[second]
	if !ok {
		return 0, fmt.Errorf("query: unknown opcode %q", second)
	}
	q.cx.ResetReservations()
	defer q.cx.ResetReservations()
	sel, ok := q.check(fi, 0)
	if !ok {
		return 0, fmt.Errorf("query: %q cannot issue on an idle machine", first)
	}
	q.cx.Reserve(sel)
	for t := 0; t <= limit; t++ {
		if _, ok := q.check(si, t); ok {
			return t, nil
		}
	}
	return 0, fmt.Errorf("query: no feasible separation within %d cycles", limit)
}

// IssueWidth estimates the machine's sustainable issue width: the largest
// k such that some multiset of k operations (drawn from the operation
// table, tried greedily) issues in one cycle. It probes each opcode's
// MaxPerCycle and the pairwise combinations of distinct opcodes.
func (q *Q) IssueWidth(limit int) int {
	defer q.cx.ResetReservations()
	best := 0
	for _, op := range q.mdes.Operations {
		if n, err := q.MaxPerCycle(op.Name, limit); err == nil && n > best {
			best = n
		}
	}
	// Mixed pairs can beat homogeneous streams (e.g. one integer + one FP).
	for _, a := range q.mdes.Operations {
		for _, b := range q.mdes.Operations {
			if a == b {
				continue
			}
			count := 0
			q.cx.ResetReservations()
			for count < limit {
				var idx int
				if count%2 == 0 {
					idx = q.mdes.OpIndex[a.Name]
				} else {
					idx = q.mdes.OpIndex[b.Name]
				}
				sel, ok := q.check(idx, 0)
				if !ok {
					break
				}
				q.cx.Reserve(sel)
				count++
			}
			if count > best {
				best = count
			}
		}
	}
	return best
}

// ResourceUse reports, for an opcode's highest-priority option choice, the
// (resource name, relative cycle) slots it would reserve — the footprint
// a resource-pressure heuristic charges per operation. The footprint is
// derived from the probe's option choices, so it is identical under every
// checker backend; per-resource cycle lists are sorted ascending.
func (q *Q) ResourceUse(opcode string) (map[string][]int, error) {
	idx, ok := q.mdes.OpIndex[opcode]
	if !ok {
		return nil, fmt.Errorf("query: unknown opcode %q", opcode)
	}
	q.cx.ResetReservations()
	sel, ok2 := q.check(idx, 0)
	if !ok2 {
		return nil, fmt.Errorf("query: %q cannot issue on an idle machine", opcode)
	}
	out := map[string][]int{}
	for ti, tree := range sel.Constraint.Trees {
		for _, u := range tree.Options[sel.Chosen[ti]].ExpandedUsages() {
			name := q.mdes.ResourceNames[u.Res]
			out[name] = append(out[name], int(u.Time))
		}
	}
	for _, cycles := range out {
		sort.Ints(cycles)
	}
	return out, nil
}
