// Package flight is the always-on flight recorder: a bounded,
// allocation-free record of recent block-scheduling events that a
// long-running service can afford to leave enabled and inspect the moment
// something goes wrong.
//
// The paper's instrumentation (Tables 5-13) answers "where does the
// scheduler spend its probes" in aggregate; the metrics registry
// (internal/obs) serves those aggregates live. What neither can answer is
// "what just went wrong": which block blew the tail latency, what its
// conflict profile looked like, and what the blocks around it were doing.
// The flight recorder closes that gap with the black-box pattern:
//
//   - The Recorder is one view of the per-context observation buffer
//     (obs.Local). It does no per-attempt work: each block's BlockDone
//     event writes one compact Entry into the buffer's ring with plain
//     stores, from the block's own counters and one clock reading — a
//     block starts where the previous one on the same borrowed context
//     ended (or at the borrow), so the buffer keeps the previous reading
//     instead of taking a second. That is why the recorder can stay
//     always-on (the <2% overhead gate at the repository root enforces
//     it).
//   - A full ring spills into the shared Recorder before it is
//     overwritten, and the rest merges on pool release, so every block
//     reaches the Recorder: a larger global ring plus per-phase streaming
//     latency histograms from which tail quantiles (p50/p95/p99/p999) and
//     worst-block exemplars are served.
//   - Anomaly triggers arm themselves from the merged history: a block
//     whose wall time exceeds a configurable multiple of the running
//     latency quantile, whose backtrack depth spikes, or whose conflict
//     rate jumps above a multiple of the running mean is flagged when it
//     is recorded (three atomic loads per block, Recorder.Classify),
//     retained in a dedicated anomaly ring, and — when an AutoDump writer
//     is configured — triggers a rate-limited JSON dump of the whole
//     recorder state.
//
// Dumps are served on demand through obs.ServeMetrics (/debug/flight) and
// the quantiles through the Prometheus and JSON exporters; Entry.Block IDs
// cross-reference trace recordings (internal/trace) so an anomalous block
// can be replayed deterministically.
package flight

import (
	"math/bits"

	"mdes/internal/stats"
)

// Trigger is a bitmask of the anomaly conditions an Entry tripped.
type Trigger uint8

// Anomaly triggers.
const (
	// TrigLatency fires when a block's wall time exceeds
	// Config.LatencyFactor times the running LatencyQuantile estimate.
	TrigLatency Trigger = 1 << iota
	// TrigBacktrack fires when a block's backtrack count reaches
	// Config.BacktrackDepth.
	TrigBacktrack
	// TrigConflict fires when a block's conflict rate exceeds
	// Config.ConflictFactor times the running mean conflict rate.
	TrigConflict

	numTriggers = 3
)

var triggerNames = [numTriggers]string{"latency", "backtrack", "conflict"}

func (t Trigger) String() string {
	if t == 0 {
		return "none"
	}
	s := ""
	for i := 0; i < numTriggers; i++ {
		if t&(1<<i) != 0 {
			if s != "" {
				s += "+"
			}
			s += triggerNames[i]
		}
	}
	return s
}

// Entry is one block's flight record: a compact, fixed-size event. The
// recorder-wide constants (machine name, description fingerprint, checker
// backend) live on the Recorder, not per entry.
type Entry struct {
	// Seq is the global merge sequence number, assigned when the entry
	// reaches the Recorder (0 while still in a context's ring).
	Seq int64 `json:"seq"`
	// Block is the scheduler's block ID (the block's index within its
	// batch for Engine.ScheduleBlocks), cross-referencing trace records.
	Block int64 `json:"block"`
	// Phase is the scheduler phase that ran the block.
	Phase stats.Phase `json:"-"`
	// Ops is the number of operations in the block.
	Ops int32 `json:"ops"`
	// Length is the schedule length in cycles, -1 for a failed schedule.
	Length int32 `json:"length"`
	// WallNs is the block's wall time on its context: from the previous
	// block's completion on the same borrowed context (or the borrow, for
	// the first block) to this block's completion. It therefore includes
	// the dependence-graph build and the caller's hand-off between
	// blocks, but never the recorder's own bookkeeping (ring spills,
	// anomaly retention), which is not billed to any block.
	WallNs int64 `json:"wall_ns"`
	// Attempts/Options/Checks/Conflicts/Backtracks are the block's own
	// counters (the paper's accounting, per block).
	Attempts   int64 `json:"attempts"`
	Options    int64 `json:"options"`
	Checks     int64 `json:"checks"`
	Conflicts  int64 `json:"conflicts"`
	Backtracks int64 `json:"backtracks"`
	// Trigger is the set of anomaly conditions the entry tripped (0 for a
	// normal block).
	Trigger Trigger `json:"-"`
}

// entryJSON is Entry with the enum fields rendered as names, for dumps.
type entryJSON struct {
	Entry
	PhaseName   string `json:"phase"`
	TriggerName string `json:"trigger,omitempty"`
}

func (e Entry) toJSON() entryJSON {
	j := entryJSON{Entry: e, PhaseName: e.Phase.String()}
	if e.Trigger != 0 {
		j.TriggerName = e.Trigger.String()
	}
	return j
}

// latency histogram: log2 octaves split into 8 sub-buckets each, giving
// ~12.5% value resolution — fine enough for p999 while staying a flat
// int64 array that merges and snapshots trivially.
const (
	subBits    = 3
	subBuckets = 1 << subBits
	numBuckets = 64 * subBuckets
)

// bucketOf maps a ns reading to its histogram bucket.
func bucketOf(ns int64) int {
	if ns < subBuckets {
		if ns < 0 {
			ns = 0
		}
		return int(ns)
	}
	e := bits.Len64(uint64(ns)) - 1 // top bit position, >= subBits
	sub := (ns >> (uint(e) - subBits)) & (subBuckets - 1)
	b := (e-subBits+1)*subBuckets + int(sub)
	if b >= numBuckets {
		return numBuckets - 1
	}
	return b
}

// boundOf returns an inclusive upper bound of bucket b's value range.
func boundOf(b int) int64 {
	if b < subBuckets {
		return int64(b)
	}
	e := b/subBuckets + subBits - 1
	sub := int64(b%subBuckets) + 1
	return int64(1)<<uint(e) + sub<<(uint(e)-subBits) - 1
}

// hist is one phase's streaming latency histogram.
type hist struct {
	buckets [numBuckets]int64
	count   int64
	sum     int64
	max     int64
}

func (h *hist) observe(ns int64) {
	h.buckets[bucketOf(ns)]++
	h.count++
	h.sum += ns
	if ns > h.max {
		h.max = ns
	}
}

// quantile returns an upper-bound estimate of the q-quantile (0 < q <= 1).
func (h *hist) quantile(q float64) int64 {
	if h.count == 0 {
		return 0
	}
	rank := int64(q*float64(h.count) + 0.5)
	if rank < 1 {
		rank = 1
	}
	if rank > h.count {
		rank = h.count
	}
	var cum int64
	for b, n := range h.buckets {
		cum += n
		if cum >= rank {
			v := boundOf(b)
			if v > h.max {
				v = h.max
			}
			return v
		}
	}
	return h.max
}
