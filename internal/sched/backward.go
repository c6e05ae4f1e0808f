package sched

import (
	"fmt"
	"sort"

	"mdes/internal/ir"
	"mdes/internal/obs"
)

// ScheduleBlockBackward schedules a block bottom-up: operations are placed
// from the dependence sinks toward the sources, each at the latest
// feasible cycle. This is the "backward-scheduling list scheduler" of the
// paper's §7, for which the usage-time shift should pick each resource's
// LATEST usage time as the constant (opt.Backward): conflicts then
// concentrate at time zero from this scheduler's point of view.
//
// Schedules are reported on the same forward time axis as ScheduleBlock
// (smallest issue cycle normalized to zero) and respect exactly the same
// dependences and resource constraints.
func (s *Scheduler) ScheduleBlockBackward(b *ir.Block) (*Result, error) {
	res, err := s.backward(b)
	return s.done(obs.PhaseBackward, len(b.Ops), res, err)
}

// backward is ScheduleBlockBackward's body (see list).
func (s *Scheduler) backward(b *ir.Block) (*Result, error) {
	g := ir.BuildGraphTiming(b, timing{m: s.mdes})
	n := len(g.Block.Ops)
	res := &Result{Issue: make([]int, n)}
	if n == 0 {
		return res, nil
	}
	if err := s.checkOpcodes(g.Block); err != nil {
		return res, err
	}
	// Backward scheduling probes at decreasing (negative) cycles, so the
	// checker needs random access to the reservation window.
	if caps := s.cx.Capabilities(); caps.MonotonicOnly {
		return res, fmt.Errorf("sched: backward scheduling needs random-access probes; the %s backend is monotonic-only", caps.Backend)
	}
	s.cx.ResetReservations()

	// depth[i]: latency-weighted longest path from any source to i — the
	// mirror of the forward scheduler's height priority.
	depth := make([]int, n)
	for i := 0; i < n; i++ {
		d := s.Latency(g.Block.Ops[i].Opcode)
		for _, e := range g.Preds[i] {
			if v := depth[e.From] + e.MinDist; v > d {
				d = v
			}
		}
		depth[i] = d
	}

	// On the reversed axis tau = -issue, an edge from->to with distance d
	// (issue(to) >= issue(from)+d) becomes tau(from) >= tau(to)+d: the
	// roles of predecessors and successors swap.
	scheduled := make([]bool, n)
	nsuccs := make([]int, n)
	estart := make([]int, n) // earliest tau
	for i := range g.Block.Ops {
		nsuccs[i] = len(g.Succs[i])
	}
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool {
		if depth[order[a]] != depth[order[b]] {
			return depth[order[a]] > depth[order[b]]
		}
		return order[a] > order[b]
	})

	tau := make([]int, n)
	remaining := n
	for cycle := 0; remaining > 0; cycle++ {
		progressPossible := false
		for _, i := range order {
			if scheduled[i] {
				continue
			}
			if nsuccs[i] > 0 {
				continue
			}
			progressPossible = true
			if estart[i] > cycle {
				continue
			}
			op := g.Block.Ops[i]
			con := s.mdes.ConstraintFor(s.mdes.OpIndex[op.Opcode], op.Cascaded)

			sel, ok := s.attempt(obs.PhaseBackward, i, op, con, -cycle, &res.Counters)
			if !ok {
				continue
			}
			s.cx.Reserve(sel)
			scheduled[i] = true
			tau[i] = cycle
			remaining--
			for _, e := range g.Preds[i] {
				nsuccs[e.From]--
				if v := cycle + e.MinDist; v > estart[e.From] {
					estart[e.From] = v
				}
			}
		}
		if !progressPossible && remaining > 0 {
			return res, fmt.Errorf("sched: backward deadlock, %d operations unschedulable", remaining)
		}
		if cycle > 64*n+1024 {
			return res, fmt.Errorf("sched: backward no progress after %d cycles", cycle)
		}
	}

	// Normalize to a forward axis starting at zero.
	maxTau := 0
	for _, t := range tau {
		if t > maxTau {
			maxTau = t
		}
	}
	for i, t := range tau {
		res.Issue[i] = maxTau - t
		if res.Issue[i]+1 > res.Length {
			res.Length = res.Issue[i] + 1
		}
	}
	if s.SelfCheck {
		return res, g.CheckSchedule(res.Issue)
	}
	return res, nil
}
