// Package verify is the differential correctness harness: it checks that
// every optimized form of a machine description accepts exactly the same
// schedules as the naive reference interpretation of its unoptimized flat
// tables (internal/oracle), which is the paper's §4 semantics-preservation
// contract ("the exact same schedule is produced in each case").
//
// For one machine, the harness drives a deterministic in-order operation
// stream through the oracle, then replays the identical stream through
// every description the pipeline can produce — OR and AND/OR forms, each
// optimization pass applied one at a time (so a divergence names the pass
// that introduced it), both shift directions, the persisted arena, and
// every reservation engine (probe plan, automaton, the plan folded modulo
// an initiation interval) — asserting byte-identical issue cycles and, on
// engines that allow random-access probes, identical boolean answers over
// an exhaustive (operation × cycle) probe grid around the schedule. The
// fold is also checked at small initiation intervals, where usages wrap,
// against the oracle folded the same way.
//
// Machines come from internal/mdgen, so a failing seed is a complete
// reproducer; failures are delta-minimized to the smallest spec that still
// fails at the same stage before being reported.
package verify

import (
	"bytes"
	"fmt"
	"math/rand"
	"strings"

	"mdes/internal/automata"
	"mdes/internal/hmdes"
	"mdes/internal/lowlevel"
	"mdes/internal/mdgen"
	"mdes/internal/obs"
	"mdes/internal/opt"
	"mdes/internal/oracle"
	"mdes/internal/probeplan"
	"mdes/internal/query"
	"mdes/internal/resctx"
	"mdes/internal/stats"
)

// maxWait bounds how far past its earliest cycle the in-order scheduler
// searches before declaring the machine unschedulable — far beyond any
// reservation span a generated machine can produce.
const maxWait = 4096

// streamLen is the length of the deterministic operation stream replayed
// through every description of a machine.
const streamLen = 24

// Failure is one machine the harness caught misbehaving, minimized to the
// smallest spec that still fails at the same stage.
type Failure struct {
	Seed  int64  // generator seed that produced the failing machine
	Stage string // pipeline stage that diverged (e.g. "andor/time-shift/shift-usage-times")
	Msg   string // the original (pre-minimization) divergence
	Spec  *mdgen.Spec
}

// Error formats the failure as a self-contained bug report: the seed is
// the reproducer, the stage names the suspect pass or backend, and the
// minimized machine is small enough to debug by hand.
func (f *Failure) Error() string {
	var b strings.Builder
	fmt.Fprintf(&b, "verify: seed %d diverged at stage %s\n", f.Seed, f.Stage)
	fmt.Fprintf(&b, "  %s\n", f.Msg)
	fmt.Fprintf(&b, "reproduce: schedbench -selftest -seed %d -n 1\n", f.Seed)
	if f.Spec != nil {
		fmt.Fprintf(&b, "minimized machine:\n%s", f.Spec.Render())
	}
	return b.String()
}

// stageError tags a divergence with the pipeline stage that produced it,
// so minimization can preserve the stage, not just "fails somehow".
type stageError struct {
	stage string
	msg   string
}

func (e *stageError) Error() string { return e.stage + ": " + e.msg }

func stageOf(err error) string {
	if se, ok := err.(*stageError); ok {
		return se.stage
	}
	return ""
}

func stageErrf(stage, format string, a ...any) error {
	return &stageError{stage: stage, msg: fmt.Sprintf(format, a...)}
}

// window is the inclusive probe-cycle range of the differential grid.
type window struct{ lo, hi int }

// Run generates the machine for seed under the default shape envelope,
// checks it, and returns a minimized Failure (nil when everything agrees).
func Run(seed int64) *Failure { return RunConfig(seed, mdgen.Default()) }

// RunConfig is Run under an explicit shape envelope.
func RunConfig(seed int64, cfg mdgen.Config) *Failure {
	spec := mdgen.GenerateConfig(seed, cfg)
	return minimized(spec, CheckSpec(spec))
}

// minimized turns a divergence into a Failure, shrinking the spec to the
// smallest machine that still diverges at the same stage.
func minimized(spec *mdgen.Spec, err error) *Failure {
	if err == nil {
		return nil
	}
	stage := stageOf(err)
	min := mdgen.Minimize(spec, func(s *mdgen.Spec) bool {
		e := CheckSpec(s)
		return e != nil && stageOf(e) == stage
	})
	return &Failure{Seed: spec.Seed, Stage: stage, Msg: err.Error(), Spec: min}
}

// RunMany checks n consecutive seeds starting at start, invoking report as
// each failure is found (report may be nil). It returns every failure plus
// the aggregated probe accounting of the whole sweep — the paper's
// attempts/options/checks counters, so the tools can report how much
// differential evidence the run actually gathered.
func RunMany(start int64, n int, report func(*Failure)) ([]*Failure, stats.Counters) {
	var failures []*Failure
	var total stats.Counters
	for i := 0; i < n; i++ {
		spec := mdgen.Generate(start + int64(i))
		c, err := CheckSpecStats(spec)
		total.Add(c)
		if f := minimized(spec, err); f != nil {
			failures = append(failures, f)
			if report != nil {
				report(f)
			}
		}
	}
	return failures, total
}

// CheckSpec renders, loads, and differentially checks one generated spec.
// A machine that fails to load is itself a harness-caught bug: generated
// specs are valid by construction.
func CheckSpec(s *mdgen.Spec) error {
	_, err := CheckSpecStats(s)
	return err
}

// CheckSpecStats is CheckSpec returning the run's probe accounting.
func CheckSpecStats(s *mdgen.Spec) (stats.Counters, error) {
	mach, err := s.Machine()
	if err != nil {
		return stats.Counters{}, stageErrf("generate", "generated machine does not load: %v", err)
	}
	return CheckMachineStats(mach, s.Seed)
}

// CheckMachine runs the full differential sweep over one machine. The
// operation stream is a pure function of streamSeed, so a reported
// divergence replays exactly.
func CheckMachine(mach *hmdes.Machine, streamSeed int64) error {
	_, err := CheckMachineStats(mach, streamSeed)
	return err
}

// CheckMachineStats is CheckMachine returning the aggregated counters of
// every backend probe the sweep performed.
func CheckMachineStats(mach *hmdes.Machine, streamSeed int64) (stats.Counters, error) {
	var c stats.Counters
	err := checkMachine(mach, streamSeed, &c)
	return c, err
}

func checkMachine(mach *hmdes.Machine, streamSeed int64, c *stats.Counters) error {
	orc := oracle.New(mach)
	nOps := len(orc.MDES().Operations)

	stream, arrivals := makeStream(nOps, streamSeed)
	want, err := orc.ScheduleInOrder(stream, arrivals, maxWait)
	if err != nil {
		return stageErrf("oracle/schedule", "%v", err)
	}

	// The probe window covers every cycle any reservation or usage can
	// touch: the negative decode-stage envelope before cycle 0 through the
	// writeback envelope past the last issue.
	lo, hi := orc.TimeBounds()
	w := window{lo: lo - 2, hi: want[len(want)-1] + hi + 2}

	// The oracle's post-schedule answers, computed once and reused for
	// every description: its state depends only on the stream, which is
	// identical for all of them.
	grid := oracleGrid(orc, nOps, w)

	// Stage 1: OR form, unoptimized. This is the description the oracle
	// itself interprets, so on top of probe equivalence the prober's
	// reserved-slot set must match the oracle's slot for slot.
	orNone := lowlevel.Compile(mach, lowlevel.FormOR)
	pp, err := diffPlan("or/none", orNone, stream, arrivals, want, grid, w, c)
	if err != nil {
		return err
	}
	if err := compareSlots("or/none", orc, pp); err != nil {
		return err
	}
	if err := diffArena("or/arena", orNone, stream, arrivals, want, grid, w, c); err != nil {
		return err
	}

	// Stage 2: AND/OR form, then each optimization pass applied one at a
	// time. Probing after every pass attributes a semantics break to the
	// pass that introduced it rather than to the pipeline as a whole.
	and := lowlevel.Compile(mach, lowlevel.FormAndOr)
	if _, err := diffPlan("andor/none", and, stream, arrivals, want, grid, w, c); err != nil {
		return err
	}
	passes := []struct {
		name string
		run  func(*lowlevel.MDES) opt.Report
	}{
		{opt.PassEliminateRedundant, opt.EliminateRedundant},
		{opt.PassPruneDominated, opt.PruneDominatedOptions},
		{opt.PassPackBitVectors, opt.PackBitVectors},
		{opt.PassShiftUsageTimes, func(m *lowlevel.MDES) opt.Report { return opt.ShiftUsageTimes(m, opt.Forward) }},
		{opt.PassSortZeroFirst, opt.SortUsagesTimeZeroFirst},
		{opt.PassSortORTrees, opt.SortORTrees},
		{opt.PassHoistCommonUsages, opt.HoistCommonUsages},
	}
	for _, p := range passes {
		p.run(and)
		if _, err := diffPlan("andor/"+p.name, and, stream, arrivals, want, grid, w, c); err != nil {
			return err
		}
	}

	// Stage 3: the remaining checker backends over the fully-optimized
	// forward description (`and` now equals LevelFull).
	if err := diffAutomaton(and, stream, arrivals, want, c); err != nil {
		return err
	}
	if err := diffArena("andor/arena", and, stream, arrivals, want, grid, w, c); err != nil {
		return err
	}
	if err := diffModulo(and, stream, arrivals, want, grid, w, c); err != nil {
		return err
	}

	// Stage 4: the backward-shift pipeline (a backward scheduler's
	// configuration; usage times go non-positive, so no automaton).
	back := lowlevel.Compile(mach, lowlevel.FormAndOr)
	opt.Apply(back, opt.LevelFull, opt.Backward)
	if _, err := diffPlan("andor/full-backward", back, stream, arrivals, want, grid, w, c); err != nil {
		return err
	}

	// Stage 5: the fully-optimized OR form.
	orFull := lowlevel.Compile(mach, lowlevel.FormOR)
	opt.Apply(orFull, opt.LevelFull, opt.Forward)
	if _, err := diffPlan("or/full", orFull, stream, arrivals, want, grid, w, c); err != nil {
		return err
	}

	// Stage 6: the fold at initiation intervals narrow enough to wrap,
	// over both forms unoptimized and fully optimized, forward and
	// backward: greedy option choice must stay the oracle's, which on
	// AND/OR forms holds because hoist-common-usages probes a hoisted
	// usage before the tree it came from.
	andNone := lowlevel.Compile(mach, lowlevel.FormAndOr)
	for _, m := range []*lowlevel.MDES{orNone, orFull, andNone, and, back} {
		if err := diffFold(orc, m, stream, arrivals, c); err != nil {
			return err
		}
	}

	// Stage 7: the query layer must answer identically over the original
	// and fully-optimized descriptions.
	return diffQuery(orNone, and, c)
}

// makeStream builds the deterministic in-order stream for a machine with
// nOps operations: every op reachable, arrivals with both back-to-back
// pressure and gaps that let the window drain. A pure function of
// (nOps, streamSeed), so a reported divergence replays exactly.
func makeStream(nOps int, streamSeed int64) (stream, arrivals []int) {
	r := rand.New(rand.NewSource(streamSeed ^ 0x5deece66d))
	stream = make([]int, streamLen)
	arrivals = make([]int, streamLen)
	cycle := 0
	for i := range stream {
		stream[i] = r.Intn(nOps)
		cycle += r.Intn(3)
		if r.Intn(6) == 0 {
			cycle += 4
		}
		arrivals[i] = cycle
	}
	return stream, arrivals
}

// oracleGrid evaluates the oracle's post-schedule probe answer for every
// (operation, cycle) cell of the window.
func oracleGrid(orc *oracle.Oracle, nOps int, w window) [][]bool {
	grid := make([][]bool, nOps)
	for op := range grid {
		row := make([]bool, w.hi-w.lo+1)
		for cycle := w.lo; cycle <= w.hi; cycle++ {
			row[cycle-w.lo] = orc.Probe(op, cycle)
		}
		grid[op] = row
	}
	return grid
}

// schedule replays the stream through cx with the identical in-order
// policy the oracle used: each operation at the earliest feasible cycle at
// or after max(arrival, previous issue). Probes never go backward, so the
// same driver serves the monotonic-only automaton.
func schedule(m *lowlevel.MDES, cx *resctx.Context, stream, arrivals []int, c *stats.Counters) ([]int, error) {
	cx.ResetReservations()
	issues := make([]int, len(stream))
	prev := 0
	for i, opIdx := range stream {
		cycle := arrivals[i]
		if cycle < prev {
			cycle = prev
		}
		start := cycle
		for {
			sel, ok := probe(cx, m, opIdx, cycle, c)
			if ok {
				cx.Reserve(sel)
				break
			}
			cycle++
			if cycle-start > maxWait {
				return nil, fmt.Errorf("op %d (%s) found no issue cycle within %d of %d",
					i, m.Operations[opIdx].Name, maxWait, start)
			}
		}
		issues[i] = cycle
		prev = cycle
	}
	return issues, nil
}

// probe checks operation opIdx at cycle through the context's one probe
// helper, outside any block.
func probe(cx *resctx.Context, m *lowlevel.MDES, opIdx, cycle int, c *stats.Counters) (probeplan.Selection, bool) {
	sel, ok, _ := cx.Probe(obs.PhaseList, -1, "", m.ConstraintFor(opIdx, false), cycle, c)
	return sel, ok
}

// diffBackend replays the stream through cx over m, requires the issue
// cycles to match the oracle's byte for byte, and — unless the backend is
// the monotonic-only automaton — sweeps the probe grid against the
// oracle's answers.
func diffBackend(stage string, m *lowlevel.MDES, cx *resctx.Context, stream, arrivals, want []int, grid [][]bool, w window, c *stats.Counters) error {
	got, err := schedule(m, cx, stream, arrivals, c)
	if err != nil {
		return stageErrf(stage, "%v", err)
	}
	for i := range want {
		if got[i] != want[i] {
			return stageErrf(stage, "schedule diverged: op %d (%s) issued at %d, oracle at %d",
				i, m.Operations[stream[i]].Name, got[i], want[i])
		}
	}
	if cx.Auto != nil {
		return nil
	}
	for op := range grid {
		for cycle := w.lo; cycle <= w.hi; cycle++ {
			_, got := probe(cx, m, op, cycle, c)
			if want := grid[op][cycle-w.lo]; got != want {
				return stageErrf(stage, "probe diverged: op %s at cycle %d: backend=%v oracle=%v",
					m.Operations[op].Name, cycle, got, want)
			}
		}
	}
	return nil
}

// planContext compiles m's probe plan into a fresh prober context. It
// does not freeze m, which the harness keeps optimizing between stages.
// Compile and every pass keep constraint indices positional, so a
// description the planner rejects is a bug of the stage that produced it.
func planContext(stage string, m *lowlevel.MDES) (*resctx.Context, error) {
	plan, err := probeplan.Compile(m)
	if err != nil {
		return nil, stageErrf(stage, "cannot plan: %v", err)
	}
	return &resctx.Context{PP: probeplan.NewProber(plan)}, nil
}

// diffPlan is diffBackend with a probe plan freshly compiled from m — the
// reservation-table engine every optimized description must drive
// correctly. It returns the prober, holding the replay's reservations.
func diffPlan(stage string, m *lowlevel.MDES, stream, arrivals, want []int, grid [][]bool, w window, c *stats.Counters) (*probeplan.Prober, error) {
	cx, err := planContext(stage, m)
	if err != nil {
		return nil, err
	}
	if err := diffBackend(stage, m, cx, stream, arrivals, want, grid, w, c); err != nil {
		return nil, err
	}
	return cx.PP, nil
}

// diffArena round-trips m through the flat arena format and requires the
// persisted description to be indistinguishable from the original: the
// deep-copy materialization must re-encode to the same arena bytes
// (losslessness), and the zero-copy frozen view — probe plan adopted from
// the arena, not recompiled — must drive the prober to the oracle's
// schedules and probe answers. This is the differential gate behind the
// compiled-description cache: a cache hit serves exactly this view.
func diffArena(stage string, m *lowlevel.MDES, stream, arrivals, want []int, grid [][]bool, w window, c *stats.Counters) error {
	buf, err := m.EncodeArena()
	if err != nil {
		return stageErrf(stage, "encode: %v", err)
	}
	a, err := lowlevel.OpenArena(buf)
	if err != nil {
		return stageErrf(stage, "open: %v", err)
	}
	again, err := a.MDES().EncodeArena()
	if err != nil {
		return stageErrf(stage, "re-encode: %v", err)
	}
	if !bytes.Equal(buf, again) {
		return stageErrf(stage, "arena round trip is lossy: re-encoding differs (%d vs %d bytes)",
			len(again), len(buf))
	}
	view := a.FrozenMDES()
	if view.ArenaPlan() == nil {
		return stageErrf(stage, "frozen view lost the persisted probe plan")
	}
	_, err = diffPlan(stage, view, stream, arrivals, want, grid, w, c)
	return err
}

// diffAutomaton replays the stream through the §10 DFA backend. The
// forward-shifted LevelFull description is eligible whenever it fits the
// automaton's preconditions (≤64 resources, non-negative usage times); an
// eligible machine the construction rejects is itself a failure.
func diffAutomaton(m *lowlevel.MDES, stream, arrivals, want []int, c *stats.Counters) error {
	const stage = "backend/automaton"
	sh, err := automata.NewShared(m)
	if err != nil {
		if min, _ := oracle.TimeBounds(m); m.NumResources <= 64 && min >= 0 {
			return stageErrf(stage, "eligible machine rejected: %v", err)
		}
		return nil // genuinely ineligible; nothing to compare
	}
	return diffBackend(stage, m, &resctx.Context{Auto: sh.NewCursor()}, stream, arrivals, want, nil, window{}, c)
}

// diffModulo replays the stream through the plan folded at an initiation
// interval wider than every reserved or probed cycle, where wrapping
// cannot occur and the fold must agree with the acyclic answer exactly:
// each operation must first fit at the oracle's issue cycle, and the
// probe grid from cycle zero on (negative cycles wrap) must match.
func diffModulo(m *lowlevel.MDES, stream, arrivals, want []int, grid [][]bool, w window, c *stats.Counters) error {
	const stage = "backend/modulo"
	plan, err := probeplan.Compile(m)
	if err != nil {
		return stageErrf(stage, "cannot plan: %v", err)
	}
	_, hi := oracle.TimeBounds(m)
	mod := probeplan.NewModulo(plan, w.hi+hi+8)
	prev := 0
	for i, opIdx := range stream {
		con := m.ConstraintFor(opIdx, false)
		for cycle := max(arrivals[i], prev); ; cycle++ {
			sel, ok := mod.Check(con, cycle, c)
			if ok != (cycle == want[i]) {
				return stageErrf(stage, "schedule diverged: op %d (%s) fits at %d: %v; oracle issued at %d",
					i, m.Operations[opIdx].Name, cycle, ok, want[i])
			}
			if ok {
				mod.Reserve(sel, i)
				break
			}
		}
		prev = want[i]
	}
	for op := range grid {
		con := m.ConstraintFor(op, false)
		for cycle := 0; cycle <= w.hi; cycle++ {
			_, got := mod.Check(con, cycle, c)
			if want := grid[op][cycle-w.lo]; got != want {
				return stageErrf(stage, "probe diverged: op %s at cycle %d: fold=%v oracle=%v",
					m.Operations[op].Name, cycle, got, want)
			}
		}
	}
	return nil
}

// diffFold probes each operation of the stream at its arrival cycle on
// the plan folded at small initiation intervals, placing it when it fits;
// the fold and the oracle folded the same way must agree at every step.
func diffFold(orc *oracle.Oracle, m *lowlevel.MDES, stream, arrivals []int, c *stats.Counters) error {
	const stage = "backend/modulo-fold"
	plan, err := probeplan.Compile(m)
	if err != nil {
		return stageErrf(stage, "cannot plan: %v", err)
	}
	mod := probeplan.NewModulo(plan, 1)
	for _, ii := range []int{1, 2, 3, 5, 8} {
		mod.Configure(ii)
		orc.Fold(ii)
		for i, opIdx := range stream {
			sel, ok := mod.Check(m.ConstraintFor(opIdx, false), arrivals[i], c)
			if want := orc.Place(opIdx, arrivals[i]); ok != want {
				return stageErrf(stage, "II %d: op %d (%s) at cycle %d: fold=%v oracle=%v",
					ii, i, m.Operations[opIdx].Name, arrivals[i], ok, want)
			}
			if ok {
				mod.Reserve(sel, i)
			}
		}
	}
	return nil
}

// compareSlots requires the prober's reserved slots after the replay to
// be exactly the oracle's — same feasibility is not enough on the
// description the oracle itself interprets; the greedy option choice must
// match too.
func compareSlots(stage string, orc *oracle.Oracle, pp *probeplan.Prober) error {
	got := map[[2]int]bool{}
	for _, s := range pp.AppendReservedSlots(nil) {
		got[s] = true
	}
	want := orc.Slots()
	if len(got) != len(want) {
		return stageErrf(stage, "prober holds %d reserved slots, oracle %d", len(got), len(want))
	}
	for _, s := range want {
		if !got[[2]int{s.Res, s.Cycle}] {
			return stageErrf(stage, "oracle slot (res %d, cycle %d) missing from the prober", s.Res, s.Cycle)
		}
	}
	return nil
}

// diffQuery cross-checks the query layer over the original and the
// fully-optimized description: pairwise CanIssueTogether and
// MinIssueDistance answers must survive optimization untouched.
func diffQuery(base, full *lowlevel.MDES, c *stats.Counters) error {
	const stage = "query/cross-check"
	qa := query.New(base)
	qb := query.New(full)
	defer func() {
		c.Add(qa.Counters())
		c.Add(qb.Counters())
		qa.Close()
		qb.Close()
	}()
	n := len(base.Operations)
	if n > 4 {
		n = 4 // pairwise probes are quadratic; a corner of the table suffices
	}
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			a := base.Operations[i].Name
			b := base.Operations[j].Name
			ta, err := qa.CanIssueTogether(a, b)
			if err != nil {
				return stageErrf(stage, "base CanIssueTogether(%s,%s): %v", a, b, err)
			}
			tb, err := qb.CanIssueTogether(a, b)
			if err != nil {
				return stageErrf(stage, "optimized CanIssueTogether(%s,%s): %v", a, b, err)
			}
			if ta != tb {
				return stageErrf(stage, "CanIssueTogether(%s,%s): base=%v optimized=%v", a, b, ta, tb)
			}
			// MinIssueDistance reports "no separation within the limit"
			// as an error; the descriptions agree as long as both give
			// the same distance or both exceed the limit.
			da, errA := qa.MinIssueDistance(a, b, 8)
			db, errB := qb.MinIssueDistance(a, b, 8)
			if (errA == nil) != (errB == nil) {
				return stageErrf(stage, "MinIssueDistance(%s,%s): base err=%v optimized err=%v", a, b, errA, errB)
			}
			if errA == nil && da != db {
				return stageErrf(stage, "MinIssueDistance(%s,%s): base=%d optimized=%d", a, b, da, db)
			}
		}
	}
	return nil
}
