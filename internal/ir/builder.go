package ir

import "fmt"

// Builder is the dependence-graph constructor. It keeps every piece of
// construction scratch — per-register writer/reader tables, edge-list
// backings, the Graph itself — alive between blocks, so steady-state
// graph building allocates only when a block needs more capacity than
// any before it.
//
// Register tables are epoch-stamped instead of cleared: each Build bumps
// an epoch counter and a table entry is live only when its stamp matches,
// so resetting costs nothing regardless of how many registers earlier
// blocks touched.
//
// The returned Graph borrows the builder's backings and is valid until
// the next Build. A Builder serves one goroutine at a time.
type Builder struct {
	graph Graph
	succs [][]Edge
	preds [][]Edge

	lastWriter  []int32
	writerEpoch []uint32
	readers     [][]int32
	readerEpoch []uint32
	epoch       uint32

	loadsSince []int32
}

// Build constructs the dependence DAG for a block, reusing the builder's
// scratch:
//
//   - flow (true) dependences from each register's last writer to its
//     readers, with distance tm.FlowDist — except into cascaded
//     consumers, where the distance is 0 (same-cycle execution);
//   - anti dependences from readers to the next writer, distance 0;
//   - output dependences between successive writers, distance 1;
//   - memory edges: store→{load,store} distance 1, load→store distance 0
//     (no alias analysis: all memory operations conflict);
//   - control edges, distance 0, into a branch from each earlier
//     operation that has no successor yet (branches end blocks).
//
// Every edge goes from a lower to a higher position, and every distance
// is non-negative (tm.FlowDist must be), so an earlier operation with a
// successor already reaches the branch through it, and issue times only
// grow along the path. The graph therefore orders every earlier
// operation before the branch and accepts exactly the schedules it would
// accept with a control edge from each.
//
// Build treats the block as read-only, so shared blocks may be graphed
// and scheduled concurrently. It refuses a block with a register outside
// [0, MaxRegister) before sizing any table by it.
func (bl *Builder) Build(b *Block, tm Timing) (*Graph, error) {
	n := len(b.Ops)
	maxReg := -1
	for i, op := range b.Ops {
		for _, r := range op.Srcs {
			if uint(r) >= MaxRegister {
				return nil, registerError(i, op, r)
			}
			maxReg = max(maxReg, r)
		}
		for _, r := range op.Dests {
			if uint(r) >= MaxRegister {
				return nil, registerError(i, op, r)
			}
			maxReg = max(maxReg, r)
		}
	}
	for len(bl.lastWriter) <= maxReg {
		bl.lastWriter = append(bl.lastWriter, 0)
		bl.writerEpoch = append(bl.writerEpoch, 0)
		bl.readers = append(bl.readers, nil)
		bl.readerEpoch = append(bl.readerEpoch, 0)
	}
	bl.epoch++
	if bl.epoch == 0 {
		// Stamp wrap: stale entries could alias the fresh epoch, so clear
		// every stamp once per 2^32 builds.
		for i := range bl.writerEpoch {
			bl.writerEpoch[i] = 0
			bl.readerEpoch[i] = 0
		}
		bl.epoch = 1
	}
	epoch := bl.epoch

	if cap(bl.succs) < n {
		// Carry the old edge-list backings into the wider table so their
		// accumulated capacity is not lost.
		succs := make([][]Edge, n)
		preds := make([][]Edge, n)
		copy(succs, bl.succs[:cap(bl.succs)])
		copy(preds, bl.preds[:cap(bl.preds)])
		bl.succs, bl.preds = succs, preds
	}
	bl.succs = bl.succs[:n]
	bl.preds = bl.preds[:n]
	for i := 0; i < n; i++ {
		bl.succs[i] = bl.succs[i][:0]
		bl.preds[i] = bl.preds[i][:0]
	}

	add := func(from, to int, kind DepKind, dist int) {
		if from == to {
			return
		}
		e := Edge{From: from, To: to, Kind: kind, MinDist: dist}
		bl.succs[from] = append(bl.succs[from], e)
		bl.preds[to] = append(bl.preds[to], e)
	}

	lastStore := -1
	bl.loadsSince = bl.loadsSince[:0]

	for i, op := range b.Ops {
		for _, r := range op.Srcs {
			if bl.writerEpoch[r] == epoch {
				w := int(bl.lastWriter[r])
				dist := tm.FlowDist(w, i)
				if op.Cascaded {
					dist = 0
				}
				add(w, i, DepFlow, dist)
			}
			if bl.readerEpoch[r] != epoch {
				bl.readers[r] = bl.readers[r][:0]
				bl.readerEpoch[r] = epoch
			}
			bl.readers[r] = append(bl.readers[r], int32(i))
		}
		for _, r := range op.Dests {
			if bl.readerEpoch[r] == epoch {
				for _, rd := range bl.readers[r] {
					add(int(rd), i, DepAnti, 0)
				}
			}
			if bl.writerEpoch[r] == epoch {
				add(int(bl.lastWriter[r]), i, DepOutput, 1)
			}
			bl.lastWriter[r] = int32(i)
			bl.writerEpoch[r] = epoch
			bl.readers[r] = bl.readers[r][:0]
			bl.readerEpoch[r] = epoch
		}
		switch op.Mem {
		case MemLoad:
			if lastStore >= 0 {
				add(lastStore, i, DepMem, 1)
			}
			bl.loadsSince = append(bl.loadsSince, int32(i))
		case MemStore:
			if lastStore >= 0 {
				add(lastStore, i, DepMem, 1)
			}
			for _, l := range bl.loadsSince {
				add(int(l), i, DepMem, 0)
			}
			lastStore = i
			bl.loadsSince = bl.loadsSince[:0]
		}
		if op.Branch {
			for j := 0; j < i; j++ {
				if len(bl.succs[j]) == 0 {
					add(j, i, DepControl, 0)
				}
			}
		}
	}

	bl.graph = Graph{Block: b, Succs: bl.succs, Preds: bl.preds}
	return &bl.graph, nil
}

// registerError is Build's refusal of operation i's register r.
func registerError(i int, op *Operation, r int) error {
	return fmt.Errorf("ir: op %d (%s): %w", i, op.Opcode, errRegister(r))
}
