package obs

import (
	"math/bits"
	"sync/atomic"
)

// NumLatencyBuckets is the number of log2 ns buckets in the check-latency
// histograms: bucket 0 holds 0ns, bucket i holds durations in
// [2^(i-1), 2^i) ns, and the last bucket absorbs everything longer.
const NumLatencyBuckets = 40

// latencyBucket maps a duration in ns to its log2 bucket.
func latencyBucket(ns int64) int {
	if ns <= 0 {
		return 0
	}
	b := bits.Len64(uint64(ns))
	if b >= NumLatencyBuckets {
		return NumLatencyBuckets - 1
	}
	return b
}

// BucketUpperBound returns the exclusive ns upper bound of bucket i
// (inclusive 0 for bucket 0), for rendering and Prometheus exposition.
func BucketUpperBound(i int) int64 {
	if i <= 0 {
		return 0
	}
	return int64(1) << uint(i)
}

// phaseCounters is one phase's registry slot (all atomic).
type phaseCounters struct {
	attempts   atomic.Int64
	options    atomic.Int64
	checks     atomic.Int64
	conflicts  atomic.Int64
	backtracks atomic.Int64
	// checkNs is the log2 histogram of per-Check wall time; checkNsSum is
	// the total ns, for means and Prometheus _sum.
	checkNs    [NumLatencyBuckets]atomic.Int64
	checkNsSum atomic.Int64
}

// classCounters is one opcode class's registry slot.
type classCounters struct {
	attempts  atomic.Int64
	options   atomic.Int64
	conflicts atomic.Int64
}

// Registry aggregates scheduling metrics for one compiled machine
// description: per-phase attempt/option/check/conflict/backtrack counters
// with check-latency histograms, per-opcode-class attempt attribution,
// and conflicts keyed by the blocking resource. All fields are atomic, so
// exporters may read at any time; but the hot path never writes here —
// the registry is one view of the per-context observation buffer
// (Local), which folds into it on release, keeping the fast path
// lock-free and contention-free.
type Registry struct {
	classNames    []string
	resourceNames []string

	phases       [NumPhases]phaseCounters
	classes      []classCounters
	resConflicts []atomic.Int64
	merges       atomic.Int64
	inFlight     atomic.Int64

	// translator is the published pass ledger (see SetTranslator): a
	// single pointer swap, written once at compile time and only read by
	// exporters, never by the scheduler hot path.
	translator atomic.Pointer[Ledger]

	// backend is the name of the conflict-checker backend the observed
	// engine runs (see SetBackend); written once at construction.
	backend atomic.Pointer[string]
}

// SetBackend records which conflict-checker backend produced the metrics
// (mdes.NewEngine sets it from the selected resctx.Kind); exporters and
// FormatSnapshot report it so ablation runs are attributable.
func (r *Registry) SetBackend(name string) { r.backend.Store(&name) }

// Backend returns the recorded checker-backend name, or "".
func (r *Registry) Backend() string {
	if p := r.backend.Load(); p != nil {
		return *p
	}
	return ""
}

// AddInFlight adjusts the gauge of currently-borrowed contexts observing
// into this registry (Local.Begin and Local.Merge bump it per borrow).
func (r *Registry) AddInFlight(delta int64) { r.inFlight.Add(delta) }

// NewRegistry returns a registry for a description with the given opcode
// class (constraint) names and resource names; the names key the
// per-class and conflicts-by-resource breakdowns, so they must follow the
// observed description's constraint and resource order.
func NewRegistry(classNames, resourceNames []string) *Registry {
	return &Registry{
		classNames:    append([]string(nil), classNames...),
		resourceNames: append([]string(nil), resourceNames...),
		classes:       make([]classCounters, len(classNames)),
		resConflicts:  make([]atomic.Int64, len(resourceNames)),
	}
}

// ClassNames returns the registered opcode-class names.
func (r *Registry) ClassNames() []string { return r.classNames }

// ResourceNames returns the registered resource names.
func (r *Registry) ResourceNames() []string { return r.resourceNames }

// merge folds the metrics share of a buffer into the registry's atomics
// (part of Local.Merge, on context release). Untouched buffers merge for
// free.
func (r *Registry) merge(l *Local) {
	if !l.dirty {
		return
	}
	for p := range l.phases {
		lp, rp := &l.phases[p], &r.phases[p]
		if lp.attempts == 0 && lp.backtracks == 0 {
			continue
		}
		rp.attempts.Add(lp.attempts)
		rp.options.Add(lp.options)
		rp.checks.Add(lp.checks)
		rp.conflicts.Add(lp.conflicts)
		rp.backtracks.Add(lp.backtracks)
		rp.checkNsSum.Add(lp.checkNsSum)
		for b, n := range lp.checkNs {
			if n != 0 {
				rp.checkNs[b].Add(n)
			}
		}
	}
	t := l.tally
	for _, ci := range t.TouchedCon {
		if int(ci) < len(r.classes) {
			lc, rc := &t.Cons[ci], &r.classes[ci]
			rc.attempts.Add(lc.Attempts)
			rc.options.Add(lc.Options)
			rc.conflicts.Add(lc.Conflicts)
		}
	}
	for _, ri := range t.TouchedRes {
		if int(ri) < len(r.resConflicts) {
			r.resConflicts[ri].Add(t.Res[ri])
		}
	}
	r.merges.Add(1)
}

// localPhase mirrors phaseCounters without atomics.
type localPhase struct {
	attempts   int64
	options    int64
	checks     int64
	conflicts  int64
	backtracks int64
	checkNs    [NumLatencyBuckets]int64
	checkNsSum int64
}

// TimestampPeriod is the check-latency sampling period: the metrics view
// times one attempt in every TimestampPeriod (Local.Start takes the
// first clock reading, Local.Attempt the second) and the histogram
// weights each sample by the period, so the latency distribution and
// _sum extrapolate to all attempts while the per-Check clock cost drops
// by the same factor. Counting accounting (attempts, options, checks,
// conflicts) is never sampled. A power of two keeps the modulo free.
const TimestampPeriod = 256

// recordNs folds one sampled latency measurement into the histogram,
// weighted back up by the sampling period.
func (lp *localPhase) recordNs(ns int64) {
	lp.checkNs[latencyBucket(ns)] += TimestampPeriod
	lp.checkNsSum += ns * TimestampPeriod
}

// PhaseSnapshot is one phase's metrics at snapshot time.
type PhaseSnapshot struct {
	Phase          string                   `json:"phase"`
	Attempts       int64                    `json:"attempts"`
	OptionsChecked int64                    `json:"options_checked"`
	ResourceChecks int64                    `json:"resource_checks"`
	Conflicts      int64                    `json:"conflicts"`
	Backtracks     int64                    `json:"backtracks"`
	CheckNsSum     int64                    `json:"check_ns_sum"`
	CheckNs        [NumLatencyBuckets]int64 `json:"check_ns_log2,omitempty"`
}

// MeanCheckNs returns the mean wall time per Check in ns.
func (p PhaseSnapshot) MeanCheckNs() float64 {
	if p.Attempts == 0 {
		return 0
	}
	return float64(p.CheckNsSum) / float64(p.Attempts)
}

// ClassSnapshot is one opcode class's metrics at snapshot time.
type ClassSnapshot struct {
	Class          string `json:"class"`
	Attempts       int64  `json:"attempts"`
	OptionsChecked int64  `json:"options_checked"`
	Conflicts      int64  `json:"conflicts"`
}

// ResourceSnapshot is one resource's conflict attribution.
type ResourceSnapshot struct {
	Resource  string `json:"resource"`
	Conflicts int64  `json:"conflicts"`
}

// Snapshot is a consistent-enough point-in-time copy of a Registry
// (counters are read individually; totals may straddle a merge, which
// only ever under-reports in-flight contexts).
type Snapshot struct {
	Phases    []PhaseSnapshot    `json:"phases"`
	Classes   []ClassSnapshot    `json:"classes"`
	Resources []ResourceSnapshot `json:"resources"`
	Merges    int64              `json:"merges"`
	// InFlight is the gauge of currently-borrowed observing contexts.
	InFlight int64 `json:"in_flight"`
	// Backend names the conflict-checker backend, when one was recorded.
	Backend string `json:"backend,omitempty"`
	// Translator is the published pass ledger, when one was set.
	Translator *Ledger `json:"translator,omitempty"`
}

// Snapshot reads the registry into plain values for export.
func (r *Registry) Snapshot() Snapshot {
	s := Snapshot{
		Merges:     r.merges.Load(),
		InFlight:   r.inFlight.Load(),
		Backend:    r.Backend(),
		Translator: r.translator.Load(),
	}
	for p := 0; p < int(NumPhases); p++ {
		rp := &r.phases[p]
		ps := PhaseSnapshot{
			Phase:          Phase(p).String(),
			Attempts:       rp.attempts.Load(),
			OptionsChecked: rp.options.Load(),
			ResourceChecks: rp.checks.Load(),
			Conflicts:      rp.conflicts.Load(),
			Backtracks:     rp.backtracks.Load(),
			CheckNsSum:     rp.checkNsSum.Load(),
		}
		for b := range rp.checkNs {
			ps.CheckNs[b] = rp.checkNs[b].Load()
		}
		s.Phases = append(s.Phases, ps)
	}
	for ci := range r.classes {
		rc := &r.classes[ci]
		s.Classes = append(s.Classes, ClassSnapshot{
			Class:          r.classNames[ci],
			Attempts:       rc.attempts.Load(),
			OptionsChecked: rc.options.Load(),
			Conflicts:      rc.conflicts.Load(),
		})
	}
	for ri := range r.resConflicts {
		s.Resources = append(s.Resources, ResourceSnapshot{
			Resource:  r.resourceNames[ri],
			Conflicts: r.resConflicts[ri].Load(),
		})
	}
	return s
}
