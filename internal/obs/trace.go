package obs

import (
	"sync/atomic"

	"mdes/internal/stats"
)

// Event is one trace event within a block record.
type Event struct {
	// Kind is "attempt" (one Check call) or "conflict" (the attribution
	// of a failed attempt to its blocking resource).
	Kind string `json:"kind"`
	// Op is the operation's index within the block.
	Op     int    `json:"op"`
	Opcode string `json:"opcode"`
	// Cycle is the candidate issue cycle of the attempt.
	Cycle int `json:"cycle"`
	// Options is the number of reservation-table options checked during
	// the attempt (the per-attempt quantity of the paper's Figure 2).
	Options int `json:"options,omitempty"`
	// Choice is the chosen option index within the constraint's first
	// OR-tree, for successful attempts.
	Choice int `json:"choice,omitempty"`
	// OK reports whether the attempt succeeded (the operation issued).
	OK bool `json:"ok"`
	// Res names the blocking resource of a conflict event.
	Res string `json:"res,omitempty"`
	// Time is the blocking usage's time relative to the issue cycle.
	Time int `json:"time,omitempty"`
	// Src is the HMDES provenance of the blocked option — which
	// reservation/table option the conflicting usage was compiled from
	// (lowlevel.Option.Src syntax).
	Src string `json:"src,omitempty"`
}

// BlockRecord is one block's complete trace. A record is accumulated
// privately by the goroutine scheduling the block and handed to the sink
// as one unit, so events of concurrent blocks never interleave within a
// record.
type BlockRecord struct {
	// Block identifies the block: Engine.ScheduleBlocks uses the block's
	// index within the batch; single-block entry points use a
	// monotonically increasing sequence.
	Block   int64  `json:"block"`
	Machine string `json:"machine"`
	// Ops is the number of operations in the block.
	Ops int `json:"ops"`
	// Length is the schedule length in cycles, or -1 if scheduling
	// failed.
	Length   int            `json:"length"`
	Counters stats.Counters `json:"counters"`
	Events   []Event        `json:"events"`
}

// Sink receives completed block records. Emit must be safe for
// concurrent use and must treat each record as one atomic unit.
type Sink interface {
	Emit(rec *BlockRecord)
}

// Tracer produces per-block trace recorders; it is the trace view of the
// per-context observation buffer (Local). StartBlock returns nil when
// the block is not sampled, and the buffer then skips the block's events.
// The buffer asks when the block's first event arrives — before the block
// ID and operation count are known, so they may be passed as zero; it
// stamps both on the record when the block completes. Implementations
// must be safe for concurrent use.
type Tracer interface {
	StartBlock(block int64, machine string, numOps int) *BlockTrace
}

// BlockTrace records one block's events. It is single-goroutine (owned
// by the buffer of the context scheduling the block) until Finish hands
// the completed record to the sink.
type BlockTrace struct {
	rec  BlockRecord
	sink Sink
}

// Attempt records one Check call: candidate cycle, options checked,
// chosen option (first OR-tree) when successful.
func (t *BlockTrace) Attempt(op int, opcode string, cycle, options, choice int, ok bool) {
	t.rec.Events = append(t.rec.Events, Event{
		Kind: "attempt", Op: op, Opcode: opcode, Cycle: cycle,
		Options: options, Choice: choice, OK: ok,
	})
}

// Finish completes the record (length < 0 marks a failed schedule) and
// emits it to the sink. The BlockTrace must not be used after Finish.
func (t *BlockTrace) Finish(length int, c stats.Counters) {
	t.rec.Length = length
	t.rec.Counters = c
	t.sink.Emit(&t.rec)
}

// tracer is the standard Tracer: every sampled block gets a fresh
// recorder emitting into one shared sink.
type tracer struct {
	sink  Sink
	every uint64
	seq   atomic.Uint64
}

// TracerOption configures New.
type TracerOption func(*tracer)

// SampleEvery keeps 1 in n blocks (n <= 1 keeps every block). Sampling
// is round-robin over StartBlock calls, so concurrent goroutines share
// one sampling sequence.
func SampleEvery(n int) TracerOption {
	return func(t *tracer) {
		if n > 1 {
			t.every = uint64(n)
		}
	}
}

// New returns a Tracer emitting into sink.
func New(sink Sink, opts ...TracerOption) Tracer {
	t := &tracer{sink: sink, every: 1}
	for _, o := range opts {
		o(t)
	}
	return t
}

func (t *tracer) StartBlock(block int64, machine string, numOps int) *BlockTrace {
	if t.every > 1 && (t.seq.Add(1)-1)%t.every != 0 {
		return nil
	}
	return &BlockTrace{
		rec:  BlockRecord{Block: block, Machine: machine, Ops: numOps, Length: -1},
		sink: t.sink,
	}
}
