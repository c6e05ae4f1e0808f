package sched

import (
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
	res, err := s.opDriven(b)
	return s.done(obs.PhaseOpDriven, len(b.Ops), res, err)
}

// opDriven is ScheduleBlockOpDriven's body, on the forward setup the
// cycle-driven loop uses.
func (s *Scheduler) opDriven(b *ir.Block) (*Result, error) {
	n := len(b.Ops)
	res := &Result{Issue: make([]int, n)}
	if n == 0 {
		return res, nil
	}
	// Operation-driven scheduling probes each operation from its own
	// earliest start, revisiting cycles earlier ops already passed, so the
	// checker needs random access to the reservation window.
	if s.cx.Auto != nil {
		return res, fmt.Errorf("sched: operation-driven scheduling needs random-access probes; the automaton backend is monotonic-only")
	}
	bl, err := s.setup(b, forward.sign)
	if err != nil {
		return res, err
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

	for len(ready.items) > 0 {
		i := ready.pop()
		op := b.Ops[i]
		con := s.mdes.ConstraintFor(bl.opIdxs[i], op.Cascaded)
		cycle := estart[i]
		for {
			sel, ok := s.attempt(obs.PhaseOpDriven, i, op, con, cycle, &res.Counters)
			if ok {
				s.cx.Reserve(sel)
				break
			}
			cycle++
			if cycle-estart[i] >= bl.horizon {
				return res, fmt.Errorf("sched: op %d found no cycle within %d of its earliest start", i, bl.horizon)
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
		return res, bl.g.CheckSchedule(res.Issue)
	}
	return res, nil
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
