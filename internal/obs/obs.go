// Package obs is the observability layer: low-overhead metrics and
// structured tracing for the MDES schedulers and query interface.
//
// The paper's entire evaluation is instrumentation — counts of scheduling
// attempts, reservation-table options checked, and resource probes
// (Tables 5, 8-13) and the per-attempt options-checked distribution
// (Figure 2). This package generalizes that instrumentation for a
// long-running service: it attributes cost to description structure
// (which scheduler phase, which opcode class, which blocking resource)
// and to wall-clock time (log2-bucketed ns-per-Check histograms), and it
// can emit a machine-readable trace of every scheduling decision.
//
// One per-context buffer feeds every view. Each borrowed
// resctx.Context carries one Local, fed three events: Attempt and
// Conflict by the one probe helper (resctx.Context.Probe), and BlockDone
// once per scheduler exit. Each event folds at once, with plain stores,
// into the share of whichever views the engine attached (Views):
//
//   - the metrics Registry of atomic counters keyed by scheduler phase,
//     opcode class and blocking resource, with sampled check-latency
//     histograms, read by the exporters (Prometheus text, expvar JSON,
//     human-readable tables) at any time;
//   - the conflict profile (internal/obs/profile), per constraint, tree
//     and option — per-constraint and per-resource counts are kept once
//     in the buffer for it and the registry;
//   - the flight recorder (internal/obs/flight), one entry per block;
//   - the Tracer, producing one BlockRecord per sampled block: every
//     issue attempt with its chosen option and cycle, and conflict
//     details naming the blocking resource and usage time — the
//     machine-readable version of the paper's Figure 2 data. A record is
//     accumulated privately per block and handed to a Sink (JSONL writer
//     or in-memory ring buffer) as one atomic unit, so records from
//     concurrent goroutines never interleave.
//
// The hot path never touches the shared aggregates: Local.Merge folds the
// buffer into them once, when the context is released. A context with no
// views has no buffer, and one with only the flight recorder skips the
// per-attempt events: both cost a pointer comparison per attempt and
// zero allocations (enforced by BenchmarkObsOverhead and the overhead
// and allocs-per-run gates at the repository root).
package obs

import "mdes/internal/stats"

// Phase identifies which consumer of the compiled MDES performed an
// instrumented operation (see stats.Phase).
type Phase = stats.Phase

// Scheduler phases.
const (
	PhaseList     = stats.PhaseList
	PhaseBackward = stats.PhaseBackward
	PhaseOpDriven = stats.PhaseOpDriven
	PhaseModulo   = stats.PhaseModulo
	PhaseQuery    = stats.PhaseQuery
	NumPhases     = stats.NumPhases
)
