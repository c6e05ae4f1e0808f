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
// can render a machine-readable trace of every scheduling decision.
//
// One per-context buffer feeds every view. Each borrowed
// resctx.Context carries one Local, fed three events: Attempt and
// Conflict by the context's probe helpers (resctx.Context.Place, which
// reserves what it probed, and Probe), and BlockDone once per scheduler
// exit. Each event folds at once, with plain stores, into the share of
// whichever views the engine attached (Views); the metrics view's
// per-phase totals fold a block's counters at its BlockDone:
//
//   - the metrics Registry of atomic counters keyed by scheduler phase,
//     opcode class and blocking resource, with sampled check-latency
//     histograms, read by the exporters (Prometheus text, expvar JSON,
//     human-readable tables) at any time;
//   - the conflict profile (internal/obs/profile), per constraint, tree
//     and option — per-constraint and per-resource counts are kept once
//     in the buffer's tally (stats.Tally) for it and the registry, which
//     a probe-plan prober fills itself as it probes (Local.Tally);
//   - the flight recorder (internal/obs/flight), one entry per block;
//   - the trace, one BlockRecord per block: every issue attempt with its
//     chosen option and cycle, and conflict details naming the blocking
//     resource and usage time — the machine-readable version of the
//     paper's Figure 2 data. The buffer fills one reused record and hands
//     it to a callback (Views.Trace) at each BlockDone. Scheduling is
//     deterministic, so the trace is re-derived after the fact from an
//     MDTR recording (trace.Render, `mdtrace dump -jsonl`) instead of
//     being attached to a serving engine.
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
