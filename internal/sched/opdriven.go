package sched

import (
	"context"
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
	res := &Result{}
	if err := s.done(obs.PhaseOpDriven, len(b.Ops), res, s.opDriven(context.Background(), b, res)); err != nil {
		return nil, err
	}
	return res, nil
}

// opDriven is ScheduleBlockOpDriven's body, on the forward setup the
// cycle-driven loop uses, writing into res. It polls ctx every
// pollCycles probes.
func (s *Scheduler) opDriven(ctx context.Context, b *ir.Block, res *Result) error {
	n := len(b.Ops)
	res.reset(n)
	if n == 0 {
		return nil
	}
	// Operation-driven scheduling probes each operation from its own
	// earliest start, revisiting cycles earlier ops already passed, so the
	// checker needs random access to the reservation window.
	if s.cx.Auto != nil {
		return fmt.Errorf("sched: operation-driven scheduling needs random-access probes; the automaton backend is monotonic-only")
	}
	bl, err := s.setup(b, forward.sign)
	if err != nil {
		return err
	}
	ar := &s.cx.Arena
	npreds := ar.Ints(n)
	estart := ar.Ints(n)
	ready := readyHeap{items: ar.Ints(n)[:0], prio: bl.prio}
	for i := range npreds {
		if npreds[i] = len(bl.wait[i]); npreds[i] == 0 {
			ready.push(i)
		}
	}

	probes := 0
	for len(ready.items) > 0 {
		i := ready.pop()
		op := b.Ops[i]
		con := s.mdes.ConstraintFor(bl.opIdxs[i], op.Cascaded)
		cycle := estart[i]
		for {
			if probes++; probes%pollCycles == 0 {
				if err := ctx.Err(); err != nil {
					return err
				}
			}
			sel, ok := s.attempt(obs.PhaseOpDriven, i, op, con, cycle, &res.Counters)
			if ok {
				s.cx.Reserve(sel)
				break
			}
			cycle++
			if cycle-estart[i] >= bl.horizon {
				return fmt.Errorf("sched: op %d found no cycle within %d of its earliest start", i, bl.horizon)
			}
		}
		res.Issue[i] = cycle
		res.Length = max(res.Length, cycle+1)
		for _, e := range bl.next[i] {
			if v := cycle + e.MinDist; v > estart[e.To] {
				estart[e.To] = v
			}
			if npreds[e.To]--; npreds[e.To] == 0 {
				ready.push(e.To)
			}
		}
	}
	if s.SelfCheck {
		return bl.g.CheckSchedule(res.Issue)
	}
	return nil
}

// readyHeap is a binary max-heap of operation indices by priority, ties
// to the lower index, over a caller-provided backing (the arena's; each
// operation is pushed once, so n slots never grow).
type readyHeap struct {
	items []int
	prio  []int
}

func (h *readyHeap) before(a, b int) bool {
	x, y := h.items[a], h.items[b]
	return h.prio[x] > h.prio[y] || (h.prio[x] == h.prio[y] && x < y)
}

func (h *readyHeap) push(i int) {
	h.items = append(h.items, i)
	for c := len(h.items) - 1; c > 0; {
		p := (c - 1) / 2
		if !h.before(c, p) {
			break
		}
		h.items[c], h.items[p] = h.items[p], h.items[c]
		c = p
	}
}

func (h *readyHeap) pop() int {
	top := h.items[0]
	last := len(h.items) - 1
	h.items[0] = h.items[last]
	h.items = h.items[:last]
	for p := 0; ; {
		c := 2*p + 1
		if c >= last {
			break
		}
		if c+1 < last && h.before(c+1, c) {
			c++
		}
		if !h.before(c, p) {
			break
		}
		h.items[c], h.items[p] = h.items[p], h.items[c]
		p = c
	}
	return top
}
