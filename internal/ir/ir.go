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
	// MaxRegister bounds register numbers: the graph builder indexes
	// per-register tables by them, and refuses a register outside
	// [0, MaxRegister) from any caller.
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
	_, err := maxRegister(srcs, dests)
	return err
}

// maxRegister returns the largest register in srcs and dests (-1 when
// both are empty), or an error naming the first register outside
// [0, MaxRegister).
func maxRegister(srcs, dests []int) (int, error) {
	max := -1
	for _, list := range [2][]int{srcs, dests} {
		for _, r := range list {
			if r < 0 || r >= MaxRegister {
				return 0, errRegister(r)
			}
			if r > max {
				max = r
			}
		}
	}
	return max, nil
}

// errRegister names register r outside [0, MaxRegister).
func errRegister(r int) error {
	return fmt.Errorf("register %d outside [0,%d)", r, MaxRegister)
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

// Timing provides flow-dependence distances with operand-level
// precision: FlowDist may account for source-operand sample times and
// forwarding paths (bypasses), not just producer latency. Operations are
// named by their positions within the block. FlowDist must never be
// negative (lowlevel.MDES.FlowDistance clamps at 0): the builder leaves
// out the control edges that non-negative distances make implied.
type Timing interface {
	FlowDist(producer, consumer int) int
}

// OpTiming is Timing for callers that name operations by pointer rather
// than by block position.
type OpTiming interface {
	FlowDist(producer, consumer *Operation) int
}

// BuildGraphTiming builds b's dependence graph (see Builder.Build) on a
// fresh Builder, with flow distances keyed by operation; the graph owns
// its storage. It panics on a register outside [0, MaxRegister): callers
// holding blocks from outside the process use Builder.Build, which
// returns that as an error.
func BuildGraphTiming(b *Block, tm OpTiming) *Graph {
	g, err := new(Builder).Build(b, opTiming{b, tm})
	if err != nil {
		panic(err)
	}
	return g
}

// opTiming adapts an OpTiming to block positions.
type opTiming struct {
	b  *Block
	tm OpTiming
}

func (t opTiming) FlowDist(producer, consumer int) int {
	return t.tm.FlowDist(t.b.Ops[producer], t.b.Ops[consumer])
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
