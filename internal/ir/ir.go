// Package ir provides the small assembly-level intermediate representation
// the multi-platform list scheduler consumes: operations with register
// operands grouped into basic blocks, and the dependence DAG (flow, anti,
// output, memory and control edges) built from them.
package ir

import "fmt"

// MemKind classifies an operation's memory behaviour.
type MemKind int

const (
	MemNone MemKind = iota
	MemLoad
	MemStore
)

// Operation is one assembly operation.
type Operation struct {
	ID     int
	Opcode string // must name an operation in the target MDES
	Dests  []int  // destination register numbers
	Srcs   []int  // source register numbers
	Mem    MemKind
	Branch bool
	// Cascaded marks an operation the code generator has identified as a
	// cascade candidate (e.g. the SuperSPARC's same-cycle flow-dependent
	// IALU pairing; paper §2): its flow edges carry distance 0 and the
	// scheduler uses the opcode's cascaded reservation class.
	Cascaded bool
}

func (o *Operation) String() string {
	return fmt.Sprintf("%d:%s d%v s%v", o.ID, o.Opcode, o.Dests, o.Srcs)
}

// Per-block bounds of untrusted input. Every decoder of blocks from
// outside the process — the mdesd request decoder and the MDTR recording
// decoder — refuses a block outside them, by arithmetic on counts, before
// the graph builder sizes its per-register tables by them.
const (
	// MaxOpsPerBlock bounds one block's operation count.
	MaxOpsPerBlock = 16384
	// MaxOperands bounds one operation's source/destination lists.
	MaxOperands = 16
	// MaxRegister bounds register numbers (the graph builder indexes
	// per-register tables by them).
	MaxRegister = 1 << 20
	// MaxOpcodeLen bounds one opcode string.
	MaxOpcodeLen = 64
)

// CheckOperation returns an error unless one operation's opcode and
// register operands are within the per-block bounds.
func CheckOperation(opcode string, srcs, dests []int) error {
	if opcode == "" || len(opcode) > MaxOpcodeLen {
		return fmt.Errorf("opcode length %d outside [1,%d]", len(opcode), MaxOpcodeLen)
	}
	if len(srcs) > MaxOperands || len(dests) > MaxOperands {
		return fmt.Errorf("operand count exceeds %d", MaxOperands)
	}
	for _, list := range [2][]int{srcs, dests} {
		for _, r := range list {
			if r < 0 || r >= MaxRegister {
				return fmt.Errorf("register %d outside [0,%d)", r, MaxRegister)
			}
		}
	}
	return nil
}

// Block is a basic block: a straight-line operation sequence, optionally
// ending in a branch.
type Block struct {
	Ops []*Operation
}

// DepKind classifies dependence edges.
type DepKind int

const (
	DepFlow DepKind = iota
	DepAnti
	DepOutput
	DepMem
	DepControl
)

func (k DepKind) String() string {
	switch k {
	case DepFlow:
		return "flow"
	case DepAnti:
		return "anti"
	case DepOutput:
		return "output"
	case DepMem:
		return "mem"
	case DepControl:
		return "control"
	}
	return "?"
}

// Edge is a dependence from one operation to another with a minimum issue
// distance in cycles: issue(To) >= issue(From) + MinDist.
type Edge struct {
	From, To int
	Kind     DepKind
	MinDist  int
}

// Graph is the dependence DAG over one block's operations.
type Graph struct {
	Block *Block
	// Succs[i] and Preds[i] list the edges leaving/entering operation i
	// (indices are positions within Block.Ops, which equal Operation.IDs
	// assigned by Renumber).
	Succs [][]Edge
	Preds [][]Edge
}

// Renumber assigns sequential IDs matching slice positions. IDs are
// display/debug metadata only — the graph builder and schedulers identify
// operations by slice position. Call it when constructing a block; the
// read paths never mutate a block, so one block can be scheduled from
// many goroutines concurrently.
func (b *Block) Renumber() {
	for i, op := range b.Ops {
		op.ID = i
	}
}

// LatencyFunc returns the result latency of an opcode.
type LatencyFunc func(opcode string) int

// Timing provides dependence distances with operand-level precision:
// FlowDist may account for source-operand sample times and forwarding
// paths (bypasses), not just producer latency.
type Timing interface {
	FlowDist(producer, consumer *Operation) int
	Latency(opcode string) int
}

// latencyTiming adapts a plain LatencyFunc: flow distance = producer
// latency.
type latencyTiming struct{ lat LatencyFunc }

func (t latencyTiming) FlowDist(producer, _ *Operation) int { return t.lat(producer.Opcode) }
func (t latencyTiming) Latency(opcode string) int           { return t.lat(opcode) }

// BuildGraph constructs the dependence DAG for a block:
//
//   - flow (true) dependences from each register's last writer to its
//     readers, with distance = the writer's latency — except into cascaded
//     consumers, where the distance is 0 (same-cycle execution);
//   - anti dependences from readers to the next writer, distance 0;
//   - output dependences between successive writers, distance 1;
//   - memory edges: store→{load,store} distance 1, load→store distance 0
//     (no alias analysis: all memory operations conflict);
//   - control edges from every operation to the block's final branch,
//     distance 0, and from the branch to nothing (branches end blocks).
func BuildGraph(b *Block, latency LatencyFunc) *Graph {
	return BuildGraphTiming(b, latencyTiming{lat: latency})
}

// BuildGraphTiming is BuildGraph with operand-level flow distances. It
// treats the block as read-only (no renumbering), so shared blocks may be
// graphed and scheduled concurrently.
func BuildGraphTiming(b *Block, tm Timing) *Graph {
	g := &Graph{
		Block: b,
		Succs: make([][]Edge, len(b.Ops)),
		Preds: make([][]Edge, len(b.Ops)),
	}
	add := func(from, to int, kind DepKind, dist int) {
		if from == to {
			return
		}
		e := Edge{From: from, To: to, Kind: kind, MinDist: dist}
		g.Succs[from] = append(g.Succs[from], e)
		g.Preds[to] = append(g.Preds[to], e)
	}

	lastWriter := map[int]int{}     // reg -> op index
	readersSince := map[int][]int{} // reg -> readers since last write
	lastStore := -1
	var loadsSince []int

	for i, op := range b.Ops {
		// Flow and anti dependences via registers.
		for _, r := range op.Srcs {
			if w, ok := lastWriter[r]; ok {
				dist := tm.FlowDist(b.Ops[w], op)
				if op.Cascaded {
					dist = 0
				}
				add(w, i, DepFlow, dist)
			}
			readersSince[r] = append(readersSince[r], i)
		}
		for _, r := range op.Dests {
			for _, rd := range readersSince[r] {
				add(rd, i, DepAnti, 0)
			}
			if w, ok := lastWriter[r]; ok {
				add(w, i, DepOutput, 1)
			}
			lastWriter[r] = i
			readersSince[r] = nil
		}
		// Memory ordering.
		switch op.Mem {
		case MemLoad:
			if lastStore >= 0 {
				add(lastStore, i, DepMem, 1)
			}
			loadsSince = append(loadsSince, i)
		case MemStore:
			if lastStore >= 0 {
				add(lastStore, i, DepMem, 1)
			}
			for _, l := range loadsSince {
				add(l, i, DepMem, 0)
			}
			lastStore = i
			loadsSince = nil
		}
		// Control: everything before a branch must issue no later.
		if op.Branch {
			for j := 0; j < i; j++ {
				add(j, i, DepControl, 0)
			}
		}
	}
	return g
}

// Height returns, per operation, the latency-weighted longest path to any
// DAG sink — the classic list-scheduling priority.
func (g *Graph) Height(latency LatencyFunc) []int {
	n := len(g.Block.Ops)
	h := make([]int, n)
	// Operations are in topological order (edges only go forward).
	for i := n - 1; i >= 0; i-- {
		best := latency(g.Block.Ops[i].Opcode)
		for _, e := range g.Succs[i] {
			if v := e.MinDist + h[e.To]; v > best {
				best = v
			}
		}
		h[i] = best
	}
	return h
}

// Validate checks that edges are forward-only and acyclic by construction.
func (g *Graph) Validate() error {
	for i, edges := range g.Succs {
		for _, e := range edges {
			if e.From != i {
				return fmt.Errorf("ir: edge bookkeeping broken at op %d", i)
			}
			if e.To <= e.From {
				return fmt.Errorf("ir: backward edge %d -> %d", e.From, e.To)
			}
			if e.MinDist < 0 {
				return fmt.Errorf("ir: negative distance on %d -> %d", e.From, e.To)
			}
		}
	}
	return nil
}

// CheckSchedule verifies that issue cycles respect every dependence edge;
// it is used by tests and by the scheduler's self-check mode.
func (g *Graph) CheckSchedule(issue []int) error {
	if len(issue) != len(g.Block.Ops) {
		return fmt.Errorf("ir: schedule length %d != %d ops", len(issue), len(g.Block.Ops))
	}
	for i, edges := range g.Succs {
		for _, e := range edges {
			if issue[e.To] < issue[i]+e.MinDist {
				return fmt.Errorf("ir: %s edge %d->%d violated: %d < %d+%d",
					e.Kind, i, e.To, issue[e.To], issue[i], e.MinDist)
			}
		}
	}
	return nil
}
