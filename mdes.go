// Package mdes is a machine-description (MDES) facility for
// instruction-level-parallelism compilers, reproducing Gyllenhaal, Hwu &
// Rau, "Optimization of Machine Descriptions for Efficient Use" (MICRO-29,
// 1996).
//
// The package implements the paper's two-tier model:
//
//   - a high-level MDES language in which compiler writers describe a
//     processor's execution constraints readably and maintainably
//     (resources, shared OR-trees, AND/OR-tree operation classes,
//     latencies);
//   - a compiler from that language to a low-level representation tuned
//     for the scheduler's inner loop, via the paper's transformations:
//     redundancy elimination (CSE/copy-propagation/dead-code removal),
//     dominated-option pruning, bit-vector packing, per-resource
//     usage-time shifting, time-zero-first check ordering, AND/OR-tree
//     conflict-detection ordering, and common-usage hoisting;
//   - an instrumented multi-platform list scheduler driven by the
//     compiled description.
//
// Four detailed machine descriptions ship with the package — HP PA7100,
// Intel Pentium, Sun SuperSPARC, and AMD-K5 — with reservation-table
// option counts matching the paper's Tables 1-4.
//
// # Quick start
//
//	machine, err := mdes.Builtin(mdes.SuperSPARC)
//	if err != nil { ... }
//	compiled := mdes.Compile(machine, mdes.FormAndOr)
//	mdes.Optimize(compiled, mdes.LevelFull)
//	s := mdes.NewScheduler(compiled)
//	result, err := s.ScheduleBlock(block)
//
// For concurrent serving — one compiled description, many goroutines —
// wrap the optimized description in an Engine, which freezes it
// (immutable, race-free to share) and pools per-goroutine contexts:
//
//	engine, err := mdes.NewEngine(compiled)
//	results, total, err := engine.ScheduleBlocks(ctx, blocks, 8)
//
// Custom machines are authored in the MDES language and loaded with Load:
//
//	machine, err := mdes.Load("mymachine.mdes", source)
//
// See the examples/ directory for runnable programs and DESIGN.md for the
// system inventory and the experiment index reproducing the paper's tables
// and figures.
package mdes

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"mdes/internal/hmdes"
	"mdes/internal/ir"
	"mdes/internal/lowlevel"
	"mdes/internal/machines"
	"mdes/internal/obs"
	"mdes/internal/obs/flight"
	"mdes/internal/obs/profile"
	"mdes/internal/opt"
	"mdes/internal/query"
	"mdes/internal/resctx"
	"mdes/internal/restable"
	"mdes/internal/sched"
	"mdes/internal/stats"
)

// Machine is an analyzed high-level machine description.
type Machine = hmdes.Machine

// MachineOperation is a machine operation's scheduling attributes.
type MachineOperation = hmdes.Operation

// Compiled is the low-level compiled machine description used by the
// scheduler.
type Compiled = lowlevel.MDES

// Form selects the constraint representation of a compiled description.
type Form = lowlevel.Form

// Representation forms.
const (
	// FormOR is the traditional representation: a flat, prioritized list
	// of fully-enumerated reservation-table options per operation class.
	FormOR = lowlevel.FormOR
	// FormAndOr is the paper's AND/OR-tree representation.
	FormAndOr = lowlevel.FormAndOr
)

// Level selects how much of the optimization pipeline to run.
type Level = opt.Level

// Optimization levels (cumulative, in the paper's section order).
const (
	LevelNone       = opt.LevelNone
	LevelRedundancy = opt.LevelRedundancy
	LevelBitVector  = opt.LevelBitVector
	LevelTimeShift  = opt.LevelTimeShift
	LevelFull       = opt.LevelFull
)

// Direction configures the usage-time shift for forward or backward list
// scheduling.
type Direction = opt.Direction

// Shift directions.
const (
	Forward  = opt.Forward
	Backward = opt.Backward
)

// Report summarizes one optimization pass's effect.
type Report = opt.Report

// Ledger is the translator's pass ledger: per-pass wall time, before and
// after size metrics, and change attribution for one Optimize run.
type Ledger = obs.Ledger

// PassMetrics is one pass's ledger entry.
type PassMetrics = obs.PassMetrics

// SizeMetrics is the ledger's plain-data size measurement.
type SizeMetrics = obs.SizeMetrics

// Scheduler is the MDES-driven list scheduler.
type Scheduler = sched.Scheduler

// Result is one block's scheduling outcome.
type Result = sched.Result

// Block, IROperation and Graph are the scheduler's input IR.
type (
	Block       = ir.Block
	IROperation = ir.Operation
	Graph       = ir.Graph
	MemKind     = ir.MemKind
)

// Memory behaviour of an IR operation.
const (
	MemNone  = ir.MemNone
	MemLoad  = ir.MemLoad
	MemStore = ir.MemStore
)

// Counters are the paper's instrumentation: scheduling attempts, options
// checked, resource checks.
type Counters = stats.Counters

// Histogram collects per-attempt distributions (Figure 2).
type Histogram = stats.Histogram

// SizeStats is the byte-accounting breakdown of a compiled description.
type SizeStats = lowlevel.SizeStats

// Built-in machine names.
const (
	PA7100     = machines.PA7100
	Pentium    = machines.Pentium
	SuperSPARC = machines.SuperSPARC
	K5         = machines.K5
)

// BuiltinName identifies a built-in machine description.
type BuiltinName = machines.Name

// Builtins lists the built-in machine descriptions.
func Builtins() []BuiltinName {
	return append([]BuiltinName(nil), machines.All...)
}

// Builtin loads one of the built-in machine descriptions.
func Builtin(name BuiltinName) (*Machine, error) {
	return machines.Load(name)
}

// BuiltinSource returns the high-level MDES source text of a built-in
// machine, a starting point for authoring new descriptions.
func BuiltinSource(name BuiltinName) (string, error) {
	return machines.Source(name)
}

// Load parses and analyzes a machine description written in the high-level
// MDES language. The file name is used in error positions only.
func Load(file, source string) (*Machine, error) {
	return hmdes.Load(file, source)
}

// Compile lowers an analyzed machine into the requested low-level form,
// unoptimized. Run Optimize to apply the paper's transformations.
func Compile(m *Machine, form Form) *Compiled {
	return lowlevel.Compile(m, form)
}

// Optimize runs the transformation pipeline up to level, tuned for a
// forward scheduler, and returns one report per executed pass.
func Optimize(c *Compiled, level Level) []Report {
	return opt.Apply(c, level, opt.Forward)
}

// OptimizeFor is Optimize with an explicit scheduling direction for the
// usage-time shift (§7).
func OptimizeFor(c *Compiled, level Level, dir Direction) []Report {
	return opt.Apply(c, level, dir)
}

// OptimizeWithLedger is Optimize additionally returning the translator's
// pass ledger: per-pass wall time, before/after size metrics, and change
// attribution. Publish it into a Metrics registry with
// Metrics.SetTranslator to ship it through every exporter, or render it
// directly with FormatLedger.
func OptimizeWithLedger(c *Compiled, level Level, dir Direction) (*Ledger, []Report) {
	return opt.ApplyLedger(c, level, dir)
}

// FormatLedger renders a pass ledger as an aligned table.
func FormatLedger(l *Ledger) string {
	return obs.FormatLedger(l)
}

// NewScheduler freezes the compiled description and returns a list
// scheduler driven by it; optimize first, since Optimize panics on a
// frozen description. The scheduler is single-goroutine; for concurrent
// scheduling over one shared description use NewEngine.
func NewScheduler(c *Compiled) *Scheduler {
	return sched.New(c)
}

// Metrics is a lock-free observability registry: per-phase attempt,
// conflict, and backtrack counters with log2 Check-latency histograms,
// per-opcode-class attempt/option/check counters, and conflicts by
// blocking resource. Attach one to an Engine with WithMetrics; read it
// with Metrics.Snapshot, FormatMetrics, or ServeMetrics.
type Metrics = obs.Registry

// MetricsSnapshot is a consistent point-in-time read of a Metrics
// registry.
type MetricsSnapshot = obs.Snapshot

// NewMetrics returns an observability registry sized for the compiled
// description's opcode classes and resources.
func NewMetrics(c *Compiled) *Metrics {
	return obs.NewRegistry(c.ConstraintNames(), c.ResourceNames)
}

// FormatMetrics renders a registry's current state as human-readable
// tables (per-phase counters, hottest opcode classes, conflicts by
// resource, Check-latency histograms).
func FormatMetrics(m *Metrics) string {
	return obs.FormatRegistry(m)
}

// FlightRecorder is the always-on flight recorder: a bounded record of
// recent per-block scheduling events (latency, attempts, conflicts,
// backtracks) with streaming tail-latency quantiles and anomaly
// triggers. Attach one to an Engine with WithFlight; read it with
// FlightRecorder.Snapshot or WriteDump, or serve it through
// ServeMetrics with WithFlightExporter.
type FlightRecorder = flight.Recorder

// FlightConfig parameterizes a FlightRecorder; the zero value is a
// sensible always-on configuration.
type FlightConfig = flight.Config

// FlightSnapshot is a point-in-time copy of a FlightRecorder.
type FlightSnapshot = flight.Snapshot

// FlightEntry is one block's flight record.
type FlightEntry = flight.Entry

// NewFlightRecorder returns a flight recorder (zero cfg for defaults).
func NewFlightRecorder(cfg FlightConfig) *FlightRecorder {
	return flight.NewRecorder(cfg)
}

// ConflictProfile is the mergeable conflict-attribution profile: observed
// probe, first-block, and conflict frequencies per constraint, per
// OR-tree position, and per option, plus conflicts by blocking resource.
// Attach one to an Engine with WithProfile; read it with Snapshot,
// FormatProfile, or serve it live with WithProfileExporter. A snapshot
// feeds ReorderFromProfile (and `mdreport -tune`), which re-sorts the
// description's conflict checks by the observed frequencies.
type ConflictProfile = profile.Profile

// ProfileSnapshot is a point-in-time copy of a ConflictProfile.
type ProfileSnapshot = profile.Snapshot

// NewConflictProfile returns an empty profile shaped like the compiled
// description. The description must be the one the engine schedules with
// (profile indices follow its constraint/tree/option order).
func NewConflictProfile(c *Compiled) *ConflictProfile {
	return profile.New(c)
}

// FormatProfile renders a profile snapshot as aligned tables: hottest
// constraints with per-tree first-block counts, and the top conflicting
// resources. topN bounds both tables (<= 0 for the default).
func FormatProfile(s ProfileSnapshot, topN int) string {
	return profile.FormatSnapshot(&s, topN)
}

// ReorderFromProfile re-sorts the description's conflict checks by a
// profile's observed frequencies: OR-trees within each constraint by
// first-block frequency, usage checks within each option by attributed
// resource conflicts. Schedule-preserving by construction; run it on a
// freshly compiled (unfrozen) description and verify with the tuning
// loop (`mdreport -tune`).
func ReorderFromProfile(c *Compiled, s *ProfileSnapshot) Report {
	return opt.ReorderFromProfile(c, s)
}

// ServerOption configures ServeMetrics endpoints.
type ServerOption = obs.ServerOption

// WithFlightExporter attaches a flight recorder to a ServeMetrics
// server: its tail-latency quantiles are appended to /metrics, its dump
// is served at /debug/flight, and /healthz reports its block and
// anomaly counts.
func WithFlightExporter(f *FlightRecorder) ServerOption {
	return obs.WithFlightExporter(f)
}

// WithProfileExporter attaches a conflict profile to a ServeMetrics
// server: its live snapshot is served as JSON at /debug/profile.
func WithProfileExporter(p *ConflictProfile) ServerOption {
	return obs.WithProfileExporter(p)
}

// ServeMetrics starts an HTTP server on addr exposing the registry at
// /metrics (Prometheus text format) and /metrics.json (expvar JSON),
// a /healthz liveness probe, plus the standard pprof profiles under
// /debug/pprof/. With WithFlightExporter the flight recorder is served
// at /debug/flight. Close the returned server to stop it gracefully.
func ServeMetrics(addr string, m *Metrics, opts ...ServerOption) (*obs.Server, error) {
	return obs.ServeMetrics(addr, m, opts...)
}

// CheckerKind selects the conflict-detection backend an Engine's sessions
// probe (see internal/resctx): the default reservation-table engine — the
// description's AND/OR-trees compiled into a flat probe plan — or the
// paper §10 finite-state-automaton baseline. Backends differ in
// capability and speed, not in the schedules they produce — the automaton
// cannot release reservations, attribute conflicts to a blocking
// operation, or probe backward, so backward/operation-driven scheduling
// refuse it. Modulo scheduling takes no backend: it always probes the
// probe plan folded modulo the initiation interval.
type CheckerKind = resctx.Kind

// Selectable checker backends.
const (
	// CheckerProbePlan is the default (zero) backend: the paper's packed
	// AND/OR-tree reservation-table check, with the description compiled
	// into flat span arrays of packed probe words walked by slice
	// iteration, and allocation-free schedulers.
	CheckerProbePlan = resctx.KindProbePlan
	// CheckerAutomaton is the §10 baseline: memoized transitions of a
	// lazily-built collision DFA shared across all of the engine's
	// contexts. Requires at most 64 resources and a description optimized
	// with non-negative usage times. Schedules and attempt/conflict
	// counters match CheckerProbePlan; only ResourceChecks, the backend's
	// own work, differs.
	CheckerAutomaton = resctx.KindAutomaton
)

// CheckerKinds returns every selectable backend, default first.
func CheckerKinds() []CheckerKind { return resctx.Kinds() }

// ParseCheckerKind resolves a backend name ("probeplan", "automaton") —
// the values the tools accept for their -checker flag.
func ParseCheckerKind(s string) (CheckerKind, error) { return resctx.ParseKind(s) }

// EngineOption configures NewEngine.
type EngineOption func(*Engine)

// WithChecker selects the engine's conflict-detection backend. The
// default is CheckerProbePlan; NewEngine fails if the compiled description
// is not eligible for the requested backend (e.g. the automaton's
// 64-resource and non-negative-usage-time limits).
func WithChecker(kind CheckerKind) EngineOption {
	return func(e *Engine) { e.checker = kind }
}

// WithMetrics attaches an observability registry as a view of every
// borrowed context's observation buffer, merged into m on release; m's
// in-flight gauge tracks live sessions. The registry should be sized for
// the same compiled description (NewMetrics).
func WithMetrics(m *Metrics) EngineOption {
	return func(e *Engine) { e.metrics = m }
}

// WithFlight attaches an always-on flight recorder as a view of every
// borrowed context's observation buffer: one compact entry per
// scheduled block, spilled into rec whenever the context's ring fills
// and merged on release. NewEngine stamps rec with the machine name, the
// compiled description's content fingerprint, and the checker backend.
func WithFlight(rec *FlightRecorder) EngineOption {
	return func(e *Engine) { e.flight = rec }
}

// WithProfile attaches a conflict-attribution profile as a view of every
// borrowed context's observation buffer (plain stores, no locks), merged
// into p on release. NewEngine stamps p with the machine name, the
// compiled description's content fingerprint, and the checker backend, so
// the persisted profile artifact names exactly which description produced
// its evidence. The profile should be shaped by the same compiled
// description (NewConflictProfile).
func WithProfile(p *ConflictProfile) EngineOption {
	return func(e *Engine) { e.profile = p }
}

// Engine serves one frozen compiled machine description to any number of
// concurrent clients — the session layer between the paper's
// compile-once artifact and a production service's many inner loops.
//
// NewEngine freezes the description (validate-once, then immutable and
// data-race-free to share); every scheduling or query session borrows a
// pooled per-goroutine context holding all mutable state (reservation
// table, counters, scratch), so the steady state allocates no per-block
// scheduling structures and needs no locks on the hot path.
//
// Observability is opt-in per engine (WithMetrics, WithProfile,
// WithFlight): the attached views share one observation buffer per
// borrowed context, and with none attached the scheduling hot path
// performs only nil checks. The per-attempt trace is not an engine
// option: it is rendered after the fact from an MDTR recording
// (`mdtrace dump -jsonl`), since scheduling is deterministic.
type Engine struct {
	compiled *Compiled
	pool     *resctx.Pool
	checker  CheckerKind
	metrics  *obs.Registry
	flight   *flight.Recorder
	profile  *profile.Profile
}

// NewEngine freezes the compiled description and returns an engine
// serving it. The description must be fully optimized before this call:
// Optimize panics on a frozen MDES.
func NewEngine(c *Compiled, opts ...EngineOption) (*Engine, error) {
	e := &Engine{compiled: c}
	for _, o := range opts {
		o(e)
	}
	pool, err := resctx.NewPool(c, e.checker) // freezes c
	if err != nil {
		return nil, err
	}
	e.pool = pool
	if e.metrics == nil && e.flight == nil && e.profile == nil {
		return e, nil
	}
	// Stamp every view with what it observes — machine, content
	// fingerprint and checker backend — then attach them all as one set.
	// The views ask for the fingerprint only when they report it; the
	// frozen description memoizes it, so all views share one computation.
	checker := e.checker.String()
	fingerprint := func() string {
		fp, _ := c.Fingerprint() // cannot fail: c froze, so it validated
		return fp
	}
	if e.flight != nil {
		e.flight.SetMeta(c.MachineName, fingerprint, checker)
	}
	if e.profile != nil {
		e.profile.SetMeta(c.MachineName, fingerprint, checker)
	}
	if e.metrics != nil {
		e.metrics.SetBackend(checker)
	}
	e.pool.Observe(&obs.Views{Metrics: e.metrics, Profile: e.profile, Flight: e.flight, MDES: c})
	return e, nil
}

// CheckerKind returns the engine's conflict-detection backend.
func (e *Engine) CheckerKind() CheckerKind { return e.checker }

// Compiled returns the engine's frozen description.
func (e *Engine) Compiled() *Compiled { return e.compiled }

// Metrics returns the registry attached with WithMetrics, or nil.
func (e *Engine) Metrics() *Metrics { return e.metrics }

// Flight returns the flight recorder attached with WithFlight, or nil.
func (e *Engine) Flight() *FlightRecorder { return e.flight }

// Profile returns the conflict profile attached with WithProfile, or nil.
func (e *Engine) Profile() *ConflictProfile { return e.profile }

// Totals returns the instrumentation counters aggregated across every
// completed session (scheduling call or closed query) so far.
func (e *Engine) Totals() Counters { return e.pool.Totals() }

// ScheduleBlock schedules one block on a borrowed context.
func (e *Engine) ScheduleBlock(b *Block) (*Result, error) {
	cx := e.pool.Get()
	defer cx.Release()
	return sched.NewWithContext(e.compiled, cx).ScheduleBlock(b)
}

// ScheduleBlocks schedules every block over parallelism goroutines, the
// caller's among them, each driving the shared frozen description through
// its own borrowed context. Blocks are independent scheduling problems
// (each starts from an empty reservation table), so results — issue
// cycles, schedule lengths, per-block counters — are identical to a
// serial run regardless of parallelism; only wall-clock time changes.
// parallelism <= 0 uses GOMAXPROCS; 1 schedules on the caller's
// goroutine alone. The first error stops the remaining work, as does ctx,
// which is also polled inside long blocks; on error the partial results
// are discarded.
//
// The results share one backing (sched.NewResults): retaining any one
// retains the call's. The returned Counters are the sum over all blocks
// (deterministic, unlike the interleaving).
func (e *Engine) ScheduleBlocks(ctx context.Context, blocks []*Block, parallelism int) ([]*Result, Counters, error) {
	if parallelism <= 0 {
		parallelism = runtime.GOMAXPROCS(0)
	}
	bt := &batch{e: e, ctx: ctx, blocks: blocks, results: sched.NewResults(blocks)}
	if len(blocks) == 0 {
		return bt.results, Counters{}, nil
	}
	workers := min(parallelism, len(blocks))
	bt.next.Store(int64(workers))
	for w := 1; w < workers; w++ {
		bt.wg.Add(1)
		go func() {
			defer bt.wg.Done()
			bt.work(int64(w))
		}()
	}
	bt.work(0)
	bt.wg.Wait()
	if bt.err == nil {
		bt.err = ctx.Err()
	}
	if bt.err != nil {
		return nil, Counters{}, bt.err
	}
	var total Counters
	for _, r := range bt.results {
		total.Add(r.Counters)
	}
	return bt.results, total, nil
}

// batch is one ScheduleBlocks call's shared state. Worker w starts on
// block w and then claims indices from next, so each index goes to
// exactly one worker, which alone writes that block's Result; wg.Wait
// orders those writes before the caller reads them.
type batch struct {
	e       *Engine
	ctx     context.Context
	blocks  []*Block
	results []*Result
	next    atomic.Int64
	wg      sync.WaitGroup

	mu  sync.Mutex
	err error // the first failure, under mu
}

// work borrows one context and schedules block first, then the blocks it
// claims, until none is left or one fails. Every worker thus schedules at
// least one block, so each borrowed context merges into the attached
// views, and their merge counts do not depend on the interleaving.
func (bt *batch) work(first int64) {
	cx := bt.e.pool.Get()
	defer cx.Release()
	s := sched.NewWithContext(bt.e.compiled, cx)
	n := int64(len(bt.blocks))
	for bi := first; bi < n; bi = bt.next.Add(1) - 1 {
		err := bt.ctx.Err()
		if err == nil {
			s.BlockID = bi
			err = s.ScheduleBlockInto(bt.ctx, bt.blocks[bi], bt.results[bi])
			if err != nil && err != bt.ctx.Err() {
				err = fmt.Errorf("block %d: %w", bi, err)
			}
		}
		if err != nil {
			bt.fail(err)
			return
		}
	}
}

// fail records err unless an earlier failure was recorded, and claims
// every remaining block so that the other workers stop.
func (bt *batch) fail(err error) {
	bt.mu.Lock()
	if bt.err == nil {
		bt.err = err
	}
	bt.mu.Unlock()
	bt.next.Store(int64(len(bt.blocks)))
}

// Query returns a query session over the engine's frozen description on a
// borrowed context. Call Close on the returned Query to recycle the
// context; each goroutine must use its own Query.
func (e *Engine) Query() *Query {
	return query.NewWithContext(e.compiled, e.pool.Get())
}

// NewHistogram returns an empty histogram for Scheduler.OptionsHist.
func NewHistogram() *Histogram {
	return stats.NewHistogram()
}

// Query is the execution-constraint query interface for compiler modules
// other than the scheduler (if-conversion, height reduction, resource
// pressure heuristics — the use cases the paper's introduction motivates).
type Query = query.Q

// NewQuery freezes the compiled description and returns a query interface
// over it; optimize first, since Optimize panics on a frozen description.
func NewQuery(c *Compiled) *Query {
	return query.New(c)
}

// RenderClass renders a class's AND/OR-tree (and optionally its expanded
// OR-tree) as ASCII reservation tables, the format of the paper's figures.
func RenderClass(m *Machine, class string, expanded bool) (string, bool) {
	tree, ok := m.Classes[class]
	if !ok {
		return "", false
	}
	if expanded {
		return restable.RenderORTree(m.Resources, tree.Expand()), true
	}
	return restable.RenderAndOrTree(m.Resources, tree), true
}
