package obs

import "mdes/internal/stats"

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

// BlockRecord is one block's complete trace: the trace view's record,
// which the observation buffer fills as the block schedules and hands to
// the view's callback at the block's end (Views.Trace).
type BlockRecord struct {
	// Block identifies the block: its index within the scheduled batch
	// (sched.Scheduler.BlockID).
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
