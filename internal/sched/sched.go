// Package sched implements the MDES-driven multi-platform list scheduler
// used throughout the paper's evaluation (§4): a forward, cycle-driven list
// scheduler with latency-weighted critical-path priority, instrumented to
// count scheduling attempts, reservation-table options checked, and
// resource checks, and to collect the per-attempt options-checked
// distribution of Figure 2.
package sched

import (
	"fmt"

	"mdes/internal/check"
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

// Latency returns the opcode's result latency from the MDES operation
// table; unknown opcodes panic, as they indicate a workload/MDES mismatch.
func (s *Scheduler) Latency(opcode string) int {
	idx, ok := s.mdes.OpIndex[opcode]
	if !ok {
		panic(fmt.Sprintf("sched: opcode %q not in MDES %s", opcode, s.mdes.MachineName))
	}
	return s.mdes.Operations[idx].Latency
}

// attempt performs one instrumented Check through the context's probe
// helper (resctx.Context.Probe) and feeds the harness hooks, returning
// the selection and whether the operation issued.
func (s *Scheduler) attempt(phase obs.Phase, i int, op *ir.Operation, con *lowlevel.Constraint, cycle int, c *stats.Counters) (check.Selection, bool) {
	sel, ok, opts := s.cx.Probe(phase, i, op.Opcode, con, cycle, c)
	if s.OptionsHist != nil {
		s.OptionsHist.Observe(int(opts))
	}
	if s.OnAttempt != nil {
		s.OnAttempt(op, opts, ok)
	}
	return sel, ok
}

// done ends one block on every exit path: it emits the block's one
// BlockDone event (length -1 when err is set) and, for a schedule, folds
// the block's counters into the context.
func (s *Scheduler) done(phase obs.Phase, n int, res *Result, err error) (*Result, error) {
	if err != nil {
		s.cx.Obs.BlockDone(phase, s.BlockID, n, -1, res.Counters)
		return nil, err
	}
	s.cx.Obs.BlockDone(phase, s.BlockID, n, res.Length, res.Counters)
	s.cx.Counters.Add(res.Counters)
	return res, nil
}

// Timing adapts the compiled MDES's operand-level distances (latency,
// source sample time, bypasses) to the IR graph builder; the list and
// modulo schedulers build their dependence graphs with it.
func Timing(m *lowlevel.MDES) ir.Timing { return timing{m: m} }

type timing struct{ m *lowlevel.MDES }

func (t timing) FlowDist(producer, consumer *ir.Operation) int {
	pi, pok := t.m.OpIndex[producer.Opcode]
	ci, cok := t.m.OpIndex[consumer.Opcode]
	if !pok || !cok {
		return 1
	}
	return t.m.FlowDistance(pi, ci)
}

func (t timing) Latency(opcode string) int {
	if idx, ok := t.m.OpIndex[opcode]; ok {
		return t.m.Operations[idx].Latency
	}
	return 1
}

// ScheduleBlock list-schedules one block and returns the result.
//
// The algorithm is classic forward cycle-driven list scheduling: at each
// cycle, ready operations (all predecessors scheduled and dependence
// distances satisfied) are attempted in priority order (critical-path
// height, ties by source order); each attempt checks the operation's
// reservation constraint against the context's reservation table and
// either reserves its resources or leaves the operation for a later
// cycle. One Check call is one "scheduling attempt" in the paper's
// accounting.
//
// Every piece of per-block scratch is carved from the context's arena,
// the dependence graph is built by the context's reusable builder, and
// opcode-table lookups are hoisted to one pass, so the steady-state loop
// performs no per-block allocation beyond the returned Result.
func (s *Scheduler) ScheduleBlock(b *ir.Block) (*Result, error) {
	res, err := s.list(b)
	return s.done(obs.PhaseList, len(b.Ops), res, err)
}

// list is ScheduleBlock's body; every exit returns the block's Result
// (with its counters so far) for done.
func (s *Scheduler) list(b *ir.Block) (*Result, error) {
	n := len(b.Ops)
	res := &Result{Issue: make([]int, n)}
	if n == 0 {
		return res, nil
	}
	ar := &s.cx.Arena
	ar.Reset()

	opIdxs := ar.Ints(n)
	renumbered := true
	for i, op := range b.Ops {
		idx, ok := s.mdes.OpIndex[op.Opcode]
		if !ok {
			return res, fmt.Errorf("sched: opcode %q not in MDES %s", op.Opcode, s.mdes.MachineName)
		}
		opIdxs[i] = idx
		if op.ID != i {
			renumbered = false
		}
	}
	var g *ir.Graph
	if renumbered {
		g = s.cx.Builder.Build(b, flatTiming{m: s.mdes, opIdxs: opIdxs})
	} else {
		g = s.cx.Builder.Build(b, timing{m: s.mdes})
	}

	height := ar.Ints(n)
	ops := s.mdes.Operations
	for i := n - 1; i >= 0; i-- {
		best := ops[opIdxs[i]].Latency
		for _, e := range g.Succs[i] {
			if v := e.MinDist + height[e.To]; v > best {
				best = v
			}
		}
		height[i] = best
	}
	s.cx.ResetReservations()

	scheduled := ar.Bools(n)
	npreds := ar.Ints(n)
	estart := ar.Ints(n)
	for i := range npreds {
		npreds[i] = len(g.Preds[i])
	}
	order := ar.Ints(n)
	for i := range order {
		order[i] = i
	}
	sortByHeight(order, ar.Ints(n), height)

	remaining := n
	for cycle := 0; remaining > 0; cycle++ {
		progressPossible := false
		for _, i := range order {
			if scheduled[i] {
				continue
			}
			if npreds[i] > 0 {
				continue
			}
			progressPossible = true
			if estart[i] > cycle {
				continue
			}
			op := b.Ops[i]
			con := s.mdes.ConstraintFor(opIdxs[i], op.Cascaded)

			sel, ok := s.attempt(obs.PhaseList, i, op, con, cycle, &res.Counters)
			if !ok {
				continue
			}
			s.cx.Reserve(sel)
			scheduled[i] = true
			res.Issue[i] = cycle
			remaining--
			for _, e := range g.Succs[i] {
				npreds[e.To]--
				if v := cycle + e.MinDist; v > estart[e.To] {
					estart[e.To] = v
				}
			}
		}
		if !progressPossible && remaining > 0 {
			return res, fmt.Errorf("sched: deadlock, %d operations unschedulable", remaining)
		}
		if cycle > 64*n+1024 {
			return res, fmt.Errorf("sched: no progress after %d cycles", cycle)
		}
	}

	for _, c := range res.Issue {
		if c+1 > res.Length {
			res.Length = c + 1
		}
	}
	if s.SelfCheck {
		return res, g.CheckSchedule(res.Issue)
	}
	return res, nil
}

// checkOpcodes rejects blocks with operations the MDES does not define,
// so malformed inputs surface as errors before the priority computation
// (whose latency lookups panic on unknown names).
func (s *Scheduler) checkOpcodes(b *ir.Block) error {
	for _, op := range b.Ops {
		if _, ok := s.mdes.OpIndex[op.Opcode]; !ok {
			return fmt.Errorf("sched: opcode %q not in MDES %s", op.Opcode, s.mdes.MachineName)
		}
	}
	return nil
}

// flatTiming resolves flow distances through operation indices hoisted
// once per block, instead of two opcode-map lookups per flow edge. It is
// only valid for renumbered blocks (op.ID == position), which
// ScheduleBlock verifies before using it.
type flatTiming struct {
	m      *lowlevel.MDES
	opIdxs []int
}

func (t flatTiming) FlowDist(producer, consumer *ir.Operation) int {
	return t.m.FlowDistance(t.opIdxs[producer.ID], t.opIdxs[consumer.ID])
}

func (t flatTiming) Latency(opcode string) int {
	if idx, ok := t.m.OpIndex[opcode]; ok {
		return t.m.Operations[idx].Latency
	}
	return 1
}

// sortByHeight sorts order by (height desc, index asc) with a bottom-up
// merge sort through the caller's scratch buffer. The key is a total
// order, so the result is exactly what sort.SliceStable would produce —
// and no closure or reflection allocates.
func sortByHeight(order, buf, height []int) {
	n := len(order)
	for width := 1; width < n; width *= 2 {
		for lo := 0; lo < n; lo += 2 * width {
			mid := lo + width
			if mid >= n {
				break
			}
			hi := lo + 2*width
			if hi > n {
				hi = n
			}
			a, b, o := lo, mid, lo
			for a < mid && b < hi {
				x, y := order[a], order[b]
				if height[x] > height[y] || (height[x] == height[y] && x < y) {
					buf[o] = x
					a++
				} else {
					buf[o] = y
					b++
				}
				o++
			}
			for a < mid {
				buf[o] = order[a]
				a++
				o++
			}
			for b < hi {
				buf[o] = order[b]
				b++
				o++
			}
			copy(order[lo:hi], buf[lo:hi])
		}
	}
}

// ScheduleAll schedules a sequence of blocks, accumulating counters, and
// returns per-block results plus the grand totals.
func (s *Scheduler) ScheduleAll(blocks []*ir.Block) ([]*Result, stats.Counters, error) {
	var total stats.Counters
	results := make([]*Result, 0, len(blocks))
	for bi, b := range blocks {
		s.BlockID = int64(bi)
		r, err := s.ScheduleBlock(b)
		if err != nil {
			return nil, total, fmt.Errorf("block %d: %w", bi, err)
		}
		total.Add(r.Counters)
		results = append(results, r)
	}
	return results, total, nil
}
