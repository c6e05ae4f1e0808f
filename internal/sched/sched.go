// Package sched implements the MDES-driven block schedulers of the
// paper's evaluation: the forward, cycle-driven list scheduler with
// latency-weighted critical-path priority (§4), its backward mirror (§7)
// and operation-driven list scheduling (§4). All three run on one
// per-block setup (hoisted opcode indices, the context's graph builder,
// one priority pass, arena scratch, one horizon), and the two list
// schedulers on one cycle-driven loop. Every scheduler is instrumented to
// count scheduling attempts, reservation-table options checked, and
// resource checks, and to collect the per-attempt options-checked
// distribution of Figure 2.
package sched

import (
	"context"
	"fmt"
	"math/bits"
	"slices"

	"mdes/internal/ir"
	"mdes/internal/lowlevel"
	"mdes/internal/obs"
	"mdes/internal/resctx"
	"mdes/internal/stats"
)

// Result is the outcome of scheduling one block.
type Result struct {
	// Issue[i] is the cycle operation i was issued.
	Issue []int
	// Length is the schedule length in cycles (last issue + 1).
	Length int
	// Counters accumulates attempts/options/checks for the block.
	Counters stats.Counters
}

// reset readies r for a block of n operations: it reuses Issue's backing
// when that holds n operations and clears the length and counters.
func (r *Result) reset(n int) {
	if cap(r.Issue) < n {
		r.Issue = make([]int, n)
	}
	r.Issue = r.Issue[:n]
	r.Length, r.Counters = 0, stats.Counters{}
}

// NewResults returns one Result per block for ScheduleBlockInto, each
// Issue sized to its block and carved from one backing for the whole
// batch, so a batch costs three allocations however many blocks it
// holds. Retaining any one of the Results retains that backing.
func NewResults(blocks []*ir.Block) []*Result {
	n := 0
	for _, b := range blocks {
		n += len(b.Ops)
	}
	issue := make([]int, n)
	backing := make([]Result, len(blocks))
	results := make([]*Result, len(blocks))
	for i, b := range blocks {
		k := len(b.Ops)
		backing[i].Issue, issue = issue[:k:k], issue[k:]
		results[i] = &backing[i]
	}
	return results
}

// pollCycles is how often a block scheduler polls its call's context: the
// cycle-driven loop every pollCycles cycles it visits, the
// operation-driven loop every pollCycles probes. A cancelled call
// therefore stops within pollCycles cycles, however long its block.
const pollCycles = 64

// Scheduler schedules blocks for one compiled machine description.
//
// The compiled description is shared, immutable data (see
// lowlevel.MDES.Freeze); all mutable scheduling state lives in the
// borrowed resctx.Context. A Scheduler therefore must not be used from
// more than one goroutine at a time, but any number of Schedulers — each
// with its own borrowed Context — may drive the same compiled MDES
// concurrently (mdes.Engine.ScheduleBlocks is the fan-out entry point).
type Scheduler struct {
	mdes *lowlevel.MDES
	cx   *resctx.Context
	// OptionsHist, when non-nil, receives one sample per scheduling
	// attempt: the number of options checked during that attempt
	// (Figure 2's distribution).
	OptionsHist *stats.Histogram
	// OnAttempt, when non-nil, is called after every scheduling attempt
	// with the operation, the options checked during the attempt, and
	// whether it succeeded; the experiment harness uses it to attribute
	// attempts to option-count classes (Tables 1-4).
	OnAttempt func(op *ir.Operation, optionsChecked int64, ok bool)
	// SelfCheck, when set, re-validates every schedule against the
	// dependence graph (used by tests).
	SelfCheck bool
	// BlockID labels the next block's BlockDone event (its trace record
	// and flight entry); mdes.Engine.ScheduleBlocks and ScheduleAll set
	// it to the block's index within the batch. ScheduleBlock never
	// modifies it.
	BlockID int64
}

// New freezes the compiled MDES and returns a scheduler over it, backed by
// a standalone probe-plan context (resctx.Standalone; it panics when the
// description cannot be frozen or planned). For concurrent use over a
// shared description, borrow per-goroutine contexts from a resctx.Pool
// and use NewWithContext.
func New(m *lowlevel.MDES) *Scheduler {
	return NewWithContext(m, resctx.Standalone(m))
}

// NewWithContext returns a scheduler over the shared compiled description
// using the borrowed context for all mutable scheduling state. Per-block
// counters are also accumulated into the context, so pooled contexts
// aggregate a service-wide total on release.
func NewWithContext(m *lowlevel.MDES, cx *resctx.Context) *Scheduler {
	return &Scheduler{mdes: m, cx: cx}
}

// Context returns the scheduler's borrowed context.
func (s *Scheduler) Context() *resctx.Context { return s.cx }

// MDES returns the machine description the scheduler drives.
func (s *Scheduler) MDES() *lowlevel.MDES { return s.mdes }

// attempt is one scheduling attempt: it places operation i at cycle
// through the context (resctx.Context.Place, which reserves on success)
// and feeds the harness hooks, reporting whether the operation issued.
func (s *Scheduler) attempt(phase obs.Phase, i int, op *ir.Operation, con *lowlevel.Constraint, cycle int, c *stats.Counters) bool {
	_, ok, opts := s.cx.Place(phase, i, op.Opcode, con, cycle, c)
	if s.OptionsHist != nil {
		s.OptionsHist.Observe(int(opts))
	}
	if s.OnAttempt != nil {
		s.OnAttempt(op, opts, ok)
	}
	return ok
}

// done ends one block on every exit path: it emits the block's one
// BlockDone event (length -1 when err is set) and, for a schedule, folds
// the block's counters into the context.
func (s *Scheduler) done(phase obs.Phase, n int, res *Result, err error) error {
	if err != nil {
		s.cx.Obs.BlockDone(phase, s.BlockID, n, -1, res.Counters)
		return err
	}
	s.cx.Obs.BlockDone(phase, s.BlockID, n, res.Length, res.Counters)
	s.cx.Counters.Add(res.Counters)
	return nil
}

// ScheduleBlock list-schedules one block and returns the result.
//
// The algorithm is classic forward cycle-driven list scheduling: at each
// cycle, ready operations (all predecessors scheduled and dependence
// distances satisfied) are attempted in priority order (critical-path
// height, ties by source order); each attempt checks the operation's
// reservation constraint against the context's reservation table and
// either reserves its resources or leaves the operation for a later
// cycle. One probe is one "scheduling attempt" in the paper's
// accounting.
func (s *Scheduler) ScheduleBlock(b *ir.Block) (*Result, error) {
	res := &Result{}
	if err := s.ScheduleBlockInto(context.Background(), b, res); err != nil {
		return nil, err
	}
	return res, nil
}

// ScheduleBlockInto is ScheduleBlock writing into a Result the caller
// owns (NewResults carves a batch's): it reuses res.Issue's backing when
// that holds the block, and overwrites the rest of res. It returns
// ctx.Err() when ctx is done at one of the loop's polls (pollCycles). On
// any error res holds the counters accumulated so far and an unspecified
// Issue.
func (s *Scheduler) ScheduleBlockInto(ctx context.Context, b *ir.Block, res *Result) error {
	return s.done(obs.PhaseList, len(b.Ops), res, s.cycleDriven(ctx, b, forward, res))
}

// ScheduleBlockBackward schedules a block bottom-up: operations are placed
// from the dependence sinks toward the sources, each at the latest
// feasible cycle. This is the "backward-scheduling list scheduler" of the
// paper's §7, for which the usage-time shift should pick each resource's
// LATEST usage time as the constant (opt.Backward): conflicts then
// concentrate at time zero from this scheduler's point of view.
//
// It is ScheduleBlock's loop on the mirrored axis. Schedules are reported
// on the same forward time axis as ScheduleBlock (smallest issue cycle
// normalized to zero) and respect exactly the same dependences and
// resource constraints.
func (s *Scheduler) ScheduleBlockBackward(b *ir.Block) (*Result, error) {
	res := &Result{}
	if err := s.done(obs.PhaseBackward, len(b.Ops), res, s.cycleDriven(context.Background(), b, backward, res)); err != nil {
		return nil, err
	}
	return res, nil
}

// axis is the one difference between forward and backward list
// scheduling, held as data so that one loop serves both. The backward
// scheduler works on the reversed time axis tau = -issue, where an edge
// from->to with distance d (issue(to) >= issue(from)+d) becomes
// tau(from) >= tau(to)+d: the roles of predecessors and successors swap,
// so the loop follows Preds where the forward loop follows Succs, probes
// at -tau, and breaks priority ties toward the later operation.
type axis struct {
	phase obs.Phase
	// sign maps the loop's cycle to the probed issue cycle.
	sign int
}

var (
	forward  = axis{phase: obs.PhaseList, sign: 1}
	backward = axis{phase: obs.PhaseBackward, sign: -1}
)

// block is one block's scheduling state after setup: the hoisted
// operation-table indices, the dependence graph (borrowed from the
// context's builder) seen along one axis, the critical-path priority
// along that axis, and the horizon. Every slice comes from the context's
// arena.
type block struct {
	opIdxs []int
	g      *ir.Graph
	// next[i] lists the edges placing i releases and wait[i] the edges i
	// waits on: Succs and Preds forward, Preds and Succs backward. The
	// neighbour across edge e of i is e.From + e.To - i either way.
	next, wait [][]ir.Edge
	// prio[i] is the latency-weighted longest path from i along next:
	// height forward, depth backward.
	prio []int
	// origin is the first operation in axis order, which runs origin,
	// origin+sign, ...: source order forward, reverse source order
	// backward. Every next edge points later in that order.
	origin  int
	horizon int
}

// setup prepares one non-empty block along the given axis for any of the
// three schedulers: it resets the arena and the reservations, hoists the
// operation-table indices (refusing opcodes the description lacks),
// builds the dependence graph on the context's builder (which refuses
// out-of-range registers), and runs the one priority pass, which also
// finds the longest dependence distance for the horizon.
func (s *Scheduler) setup(b *ir.Block, sign int) (block, error) {
	n := len(b.Ops)
	ar := &s.cx.Arena
	ar.Reset()
	bl := block{opIdxs: ar.Ints(n)}
	for i, op := range b.Ops {
		idx, ok := s.mdes.OpIndex[op.Opcode]
		if !ok {
			return bl, fmt.Errorf("sched: opcode %q not in MDES %s", op.Opcode, s.mdes.MachineName)
		}
		bl.opIdxs[i] = idx
	}
	s.cx.Timing = lowlevel.BlockTiming{M: s.mdes, OpIdxs: bl.opIdxs}
	g, err := s.cx.Builder.Build(b, &s.cx.Timing)
	if err != nil {
		return bl, fmt.Errorf("sched: %w", err)
	}
	bl.g, bl.next, bl.wait = g, g.Succs, g.Preds
	if sign < 0 {
		bl.next, bl.wait, bl.origin = g.Preds, g.Succs, n-1
	}

	bl.prio = ar.Ints(n)
	maxDist := 0
	ops := s.mdes.Operations
	for k := n - 1; k >= 0; k-- {
		i := bl.origin + sign*k
		best := ops[bl.opIdxs[i]].Latency
		for _, e := range bl.next[i] {
			if v := e.MinDist + bl.prio[e.From+e.To-i]; v > best {
				best = v
			}
			if e.MinDist > maxDist {
				maxDist = e.MinDist
			}
		}
		bl.prio[i] = best
	}
	bl.horizon = horizon(n, s.mdes.UsageSpan(), maxDist)
	s.cx.ResetReservations()
	return bl, nil
}

// horizon bounds the cycles any scheduler here needs for a block of n
// operations, given the description's usage span S
// (lowlevel.MDES.UsageSpan) and the block's longest dependence distance
// D: n*max(S, D) + 1.
//
// Between two placements at most max(S, D) cycles pass. Let c be the
// cycle of the latest placement so far (0 before the first). The graph
// is acyclic, so some unplaced operation waits on no unplaced one; its
// neighbours were placed by cycle c, so its earliest start is at most
// c + D. After S cycles no slot reserved so far can collide: usages of
// one resource by operations issued at p <= c and q collide only when
// |q - p| is at most that resource's latest minus earliest usage time,
// which is below S. So the operation fits by max(estart, c + S) unless
// it fits nowhere, not even on an empty table, and the block's last
// placement comes by (n-1)*max(S, D): the schedule is shorter than the
// horizon. The backward loop's mirrored axis changes none of this.
//
// Operation-driven scheduling places operations out of cycle order, so
// it applies the bound relative to each operation's earliest start: with
// M the latest issue placed so far, an operation fits by max(estart,
// M + S) and its estart is at most M + D, so M grows by at most max(S, D)
// per placement and no operation waits more than (n-1)*max(S, D) cycles
// past its estart.
//
// An operation that fits nowhere exhausts the horizon and fails the
// block, which bounds the work spent on it.
func horizon(n, span, dist int) int {
	return n*max(span, dist) + 1
}

// cycleDriven is the one cycle-driven list-scheduling loop behind
// ScheduleBlock and ScheduleBlockBackward, writing into res. Nothing in
// the loop depends on the direction except through the axis's data: the
// edges it follows, the probe sign, the tie order and the final
// normalization. Every piece of per-block scratch is carved from the
// context's arena, so the loop allocates nothing beyond res.Issue when
// that is too small.
func (s *Scheduler) cycleDriven(ctx context.Context, b *ir.Block, ax axis, res *Result) error {
	n := len(b.Ops)
	res.reset(n)
	if n == 0 {
		return nil
	}
	if ax.sign < 0 && s.cx.Auto != nil {
		// Backward scheduling probes at decreasing (negative) cycles, so
		// the checker needs random access to the reservation window.
		return fmt.Errorf("sched: backward scheduling needs random-access probes; the automaton backend is monotonic-only")
	}
	bl, err := s.setup(b, ax.sign)
	if err != nil {
		return err
	}
	ar := &s.cx.Arena
	order := ar.Ints(n)
	nwait := ar.Ints(n)
	estart := ar.Ints(n)
	// Priority order, ties in axis order: each operation's key packs its
	// negated priority above its axis position k, so the keys are unique
	// and an unstable sort of them is the stable sort by priority.
	shift := bits.Len(uint(n))
	for k := range order {
		i := bl.origin + ax.sign*k
		order[k] = -bl.prio[i]<<shift | k
		nwait[i] = len(bl.wait[i])
	}
	slices.Sort(order)
	for k, key := range order {
		order[k] = bl.origin + ax.sign*(key&(1<<shift-1))
	}

	// order holds the unplaced operations in priority order; each pass
	// keeps those it does not place. A pass that attempts nothing changes
	// nothing, so the next cycle that can attempt anything is the earliest
	// start of a ready operation (due), and the loop jumps there, never
	// past the horizon: the attempts, and the cycles they are made at, are
	// those of a loop that visits every cycle. res.Issue holds each
	// operation's loop cycle until the normalization.
	for cycle, pass := 0, 1; len(order) > 0; pass++ {
		if cycle >= bl.horizon {
			return fmt.Errorf("sched: %d operations unplaced after %d cycles", len(order), cycle)
		}
		if pass%pollCycles == 0 {
			if err := ctx.Err(); err != nil {
				return err
			}
		}
		attempted, due := false, bl.horizon
		kept := order[:0]
		for _, i := range order {
			if nwait[i] == 0 && estart[i] <= cycle {
				attempted = true
				op := b.Ops[i]
				con := s.mdes.ConstraintFor(bl.opIdxs[i], op.Cascaded)
				if s.attempt(ax.phase, i, op, con, ax.sign*cycle, &res.Counters) {
					res.Issue[i] = cycle
					for _, e := range bl.next[i] {
						j := e.From + e.To - i
						nwait[j]--
						estart[j] = max(estart[j], cycle+e.MinDist)
					}
					continue
				}
			} else if nwait[i] == 0 {
				due = min(due, estart[i])
			}
			kept = append(kept, i)
		}
		order = kept
		if attempted {
			cycle++
		} else {
			cycle = due
		}
	}

	// Forward, loop cycles are issue cycles; backward they are tau, and
	// issue = last - tau puts the schedule on the forward axis at zero.
	last := 0
	for _, c := range res.Issue {
		last = max(last, c)
	}
	off := last * (1 - ax.sign) / 2
	for i, c := range res.Issue {
		res.Issue[i] = off + ax.sign*c
		res.Length = max(res.Length, res.Issue[i]+1)
	}
	if s.SelfCheck {
		return bl.g.CheckSchedule(res.Issue)
	}
	return nil
}

// ScheduleAll schedules a sequence of blocks, accumulating counters, and
// returns per-block results (one NewResults batch) plus the grand totals.
func (s *Scheduler) ScheduleAll(blocks []*ir.Block) ([]*Result, stats.Counters, error) {
	var total stats.Counters
	results := NewResults(blocks)
	for bi, b := range blocks {
		s.BlockID = int64(bi)
		if err := s.ScheduleBlockInto(context.Background(), b, results[bi]); err != nil {
			return nil, total, fmt.Errorf("block %d: %w", bi, err)
		}
		total.Add(results[bi].Counters)
	}
	return results, total, nil
}
