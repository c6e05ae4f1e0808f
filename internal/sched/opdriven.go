package sched

import (
	"container/heap"
	"fmt"

	"mdes/internal/ir"
	"mdes/internal/obs"
)

// ScheduleBlockOpDriven schedules a block with operation-driven list
// scheduling: operations are taken in priority order and each is probed at
// successive cycles from its earliest start until its constraint is
// satisfiable. The paper names "operation scheduling" (with iterative
// modulo scheduling) as a technique under which "the number of scheduling
// attempts required per operation can increase significantly" (§4) —
// every failed per-cycle probe here is an attempt, so long-latency shadows
// and busy resources translate directly into more attempts than the
// cycle-driven scheduler performs. Schedules are legal under exactly the
// same dependences and resource constraints (and are often identical, but
// the algorithms' tie-breaking differs, so this is not guaranteed).
func (s *Scheduler) ScheduleBlockOpDriven(b *ir.Block) (*Result, error) {
	g := ir.BuildGraphTiming(b, timing{m: s.mdes})
	n := len(g.Block.Ops)
	res := &Result{Issue: make([]int, n)}
	if n == 0 {
		return res, nil
	}
	if err := s.checkOpcodes(g.Block); err != nil {
		return nil, err
	}
	// Operation-driven scheduling probes each operation from its own
	// earliest start, revisiting cycles earlier ops already passed, so the
	// checker needs random access to the reservation window.
	if caps := s.cx.Capabilities(); caps.MonotonicOnly {
		return nil, fmt.Errorf("sched: operation-driven scheduling needs random-access probes; the %s backend is monotonic-only", caps.Backend)
	}
	ft := s.flightStart()
	bt := s.startTrace(n)
	height := g.Height(s.Latency)
	s.cx.ResetReservations()

	npreds := make([]int, n)
	estart := make([]int, n)
	for i := range g.Block.Ops {
		npreds[i] = len(g.Preds[i])
	}

	// Ready queue ordered by (height desc, index asc).
	pq := &opHeap{height: height}
	for i := 0; i < n; i++ {
		if npreds[i] == 0 {
			heap.Push(pq, i)
		}
	}

	scheduled := 0
	for pq.Len() > 0 {
		i := heap.Pop(pq).(int)
		op := g.Block.Ops[i]
		opIdx, ok := s.mdes.OpIndex[op.Opcode]
		if !ok {
			return nil, fmt.Errorf("sched: opcode %q not in MDES %s", op.Opcode, s.mdes.MachineName)
		}
		con := s.mdes.ConstraintFor(opIdx, op.Cascaded)

		cycle := estart[i]
		if pp := s.cx.PP; pp != nil && s.cx.Obs == nil && s.cx.Prof == nil && bt == nil && s.OptionsHist == nil && s.OnAttempt == nil {
			// Window path: probe 64-cycle windows in one CheckWindow pass
			// per window instead of re-entering Check per cycle. The
			// prober's contract makes this accounting-equivalent to the
			// serial loop below, and no per-attempt instrumentation is
			// attached, so results and counters are identical.
			limit := estart[i] + 64*n + 1024
			found := false
			for lo := cycle; lo <= limit; {
				hi := lo + 64
				if hi > limit+1 {
					hi = limit + 1
				}
				if sel, at, ok := pp.CheckWindow(con, lo, hi, &res.Counters); ok {
					cycle = at
					pp.Reserve(sel)
					found = true
					break
				}
				lo = hi
			}
			if !found {
				s.flightRecord(obs.PhaseOpDriven, ft, n, -1, res.Counters)
				return nil, fmt.Errorf("sched: op %d found no cycle", i)
			}
		} else {
			for {
				sel, ok, opts := s.attempt(obs.PhaseOpDriven, bt, i, op, con, cycle, &res.Counters)
				if s.OptionsHist != nil {
					s.OptionsHist.Observe(int(opts))
				}
				if s.OnAttempt != nil {
					s.OnAttempt(op, opts, ok)
				}
				if ok {
					s.cx.Reserve(sel)
					break
				}
				cycle++
				if cycle > estart[i]+64*n+1024 {
					if bt != nil {
						bt.Finish(-1, res.Counters)
					}
					s.flightRecord(obs.PhaseOpDriven, ft, n, -1, res.Counters)
					return nil, fmt.Errorf("sched: op %d found no cycle", i)
				}
			}
		}
		res.Issue[i] = cycle
		scheduled++
		for _, e := range g.Succs[i] {
			if v := cycle + e.MinDist; v > estart[e.To] {
				estart[e.To] = v
			}
			npreds[e.To]--
			if npreds[e.To] == 0 {
				heap.Push(pq, e.To)
			}
		}
	}
	if scheduled != n {
		return nil, fmt.Errorf("sched: deadlock, scheduled %d of %d", scheduled, n)
	}
	for _, c := range res.Issue {
		if c+1 > res.Length {
			res.Length = c + 1
		}
	}
	if s.SelfCheck {
		if err := g.CheckSchedule(res.Issue); err != nil {
			return nil, err
		}
	}
	if bt != nil {
		bt.Finish(res.Length, res.Counters)
	}
	s.flightRecord(obs.PhaseOpDriven, ft, n, res.Length, res.Counters)
	s.cx.Counters.Add(res.Counters)
	return res, nil
}

// opHeap is a max-heap of operation indices by height, ties to lower index.
type opHeap struct {
	items  []int
	height []int
}

func (h *opHeap) Len() int { return len(h.items) }
func (h *opHeap) Less(a, b int) bool {
	x, y := h.items[a], h.items[b]
	if h.height[x] != h.height[y] {
		return h.height[x] > h.height[y]
	}
	return x < y
}
func (h *opHeap) Swap(a, b int)      { h.items[a], h.items[b] = h.items[b], h.items[a] }
func (h *opHeap) Push(x interface{}) { h.items = append(h.items, x.(int)) }
func (h *opHeap) Pop() interface{} {
	old := h.items
	n := len(old)
	x := old[n-1]
	h.items = old[:n-1]
	return x
}
