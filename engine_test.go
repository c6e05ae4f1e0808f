package mdes_test

import (
	"context"
	"errors"
	"fmt"
	"runtime/debug"
	"strings"
	"testing"

	"mdes"
	"mdes/internal/ir"
	"mdes/internal/modsched"
	"mdes/internal/workload"
)

func newTestEngine(t testing.TB, name mdes.BuiltinName) *mdes.Engine {
	t.Helper()
	machine, err := mdes.Builtin(name)
	if err != nil {
		t.Fatal(err)
	}
	compiled := mdes.Compile(machine, mdes.FormAndOr)
	mdes.Optimize(compiled, mdes.LevelFull)
	eng, err := mdes.NewEngine(compiled)
	if err != nil {
		t.Fatal(err)
	}
	return eng
}

func testBlocks(t testing.TB, name mdes.BuiltinName, numOps int) []*mdes.Block {
	t.Helper()
	prog, err := workload.Generate(workload.Config{Machine: name, NumOps: numOps, Seed: 1996})
	if err != nil {
		t.Fatal(err)
	}
	return prog.Blocks
}

// ScheduleBlocks must produce identical per-block results at every
// parallelism level, equal to the plain serial scheduler's.
func TestEngineScheduleBlocksMatchesSerial(t *testing.T) {
	for _, name := range []mdes.BuiltinName{mdes.SuperSPARC, mdes.K5} {
		eng := newTestEngine(t, name)
		blocks := testBlocks(t, name, 2000)

		s := mdes.NewScheduler(eng.Compiled())
		serial, serialTotal, err := s.ScheduleAll(blocks)
		if err != nil {
			t.Fatal(err)
		}

		for _, par := range []int{1, 2, 4, 8} {
			results, total, err := eng.ScheduleBlocks(context.Background(), blocks, par)
			if err != nil {
				t.Fatalf("%s parallelism %d: %v", name, par, err)
			}
			if total != serialTotal {
				t.Fatalf("%s parallelism %d: counters %+v, serial %+v", name, par, total, serialTotal)
			}
			for bi, r := range results {
				if r.Length != serial[bi].Length {
					t.Fatalf("%s parallelism %d block %d: length %d, serial %d",
						name, par, bi, r.Length, serial[bi].Length)
				}
				for oi, c := range r.Issue {
					if c != serial[bi].Issue[oi] {
						t.Fatalf("%s parallelism %d block %d op %d: cycle %d, serial %d",
							name, par, bi, oi, c, serial[bi].Issue[oi])
					}
				}
			}
		}

		// Totals must have accumulated every released context's counters:
		// 4 runs over the same blocks.
		if got, want := eng.Totals().Attempts, 4*serialTotal.Attempts; got != want {
			t.Fatalf("%s engine totals attempts = %d, want %d", name, got, want)
		}
	}
}

func TestEngineScheduleBlocksEmptyAndDefaults(t *testing.T) {
	eng := newTestEngine(t, mdes.SuperSPARC)
	results, total, err := eng.ScheduleBlocks(context.Background(), nil, 0)
	if err != nil || len(results) != 0 || total.Attempts != 0 {
		t.Fatalf("empty schedule: results=%v total=%+v err=%v", results, total, err)
	}
	blocks := testBlocks(t, mdes.SuperSPARC, 200)
	// parallelism 0 → GOMAXPROCS; must still work.
	if _, _, err := eng.ScheduleBlocks(context.Background(), blocks, 0); err != nil {
		t.Fatal(err)
	}
}

func TestEngineScheduleBlocksCancellation(t *testing.T) {
	eng := newTestEngine(t, mdes.SuperSPARC)
	blocks := testBlocks(t, mdes.SuperSPARC, 500)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, _, err := eng.ScheduleBlocks(ctx, blocks, 2)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled run returned %v, want context.Canceled", err)
	}
}

// stepCancel is a context that reads as cancelled from its n-th Err call
// on, so a test can cancel a call after its block has started without a
// clock.
type stepCancel struct {
	context.Context
	calls, n int
}

func (c *stepCancel) Err() error {
	if c.calls++; c.calls >= c.n {
		return context.Canceled
	}
	return nil
}

// ScheduleBlocks hands its context to the block it schedules: cancelled
// after its one long block has started (past the check before the
// block), the call returns context.Canceled from the block's own poll,
// having spent a small share of the block's attempts.
func TestEngineScheduleBlocksCancelsInsideBlock(t *testing.T) {
	var src strings.Builder
	src.WriteString("machine Long { resource R; class busy { use R @ 0")
	for c := 1; c < 100; c++ {
		fmt.Fprintf(&src, ", R @ %d", c)
	}
	src.WriteString("; } operation OP class busy latency 1; }")
	machine, err := mdes.Load("long", src.String())
	if err != nil {
		t.Fatal(err)
	}
	compiled := mdes.Compile(machine, mdes.FormAndOr)
	mdes.Optimize(compiled, mdes.LevelFull)
	metrics := mdes.NewMetrics(compiled)
	eng, err := mdes.NewEngine(compiled, mdes.WithMetrics(metrics))
	if err != nil {
		t.Fatal(err)
	}
	attempts := func() (n int64) {
		for _, p := range metrics.Snapshot().Phases {
			n += p.Attempts
		}
		return n
	}
	b := &mdes.Block{}
	for i := 0; i < 40; i++ {
		b.Ops = append(b.Ops, &mdes.IROperation{Opcode: "OP", Dests: []int{i}})
	}
	_, whole, err := eng.ScheduleBlocks(context.Background(), []*mdes.Block{b}, 1)
	if err != nil {
		t.Fatal(err)
	}
	before := attempts()
	ctx := &stepCancel{Context: context.Background(), n: 2}
	if _, _, err := eng.ScheduleBlocks(ctx, []*mdes.Block{b}, 1); err != context.Canceled {
		t.Fatalf("cancelled inside the block: err = %v, want context.Canceled unwrapped", err)
	}
	if spent := attempts() - before; spent == 0 || 10*spent > whole.Attempts {
		t.Fatalf("cancelled block spent %d attempts, the whole block %d", spent, whole.Attempts)
	}
}

// One ScheduleBlocks call allocates one Result per block in one slice and
// one issue backing for all of them, so its allocations do not grow with
// the number of blocks, serially or in parallel. The collector is off
// while counting: a collection empties the context pool, and refilling
// it would count allocations no block made.
func TestScheduleBlocksAllocsIndependentOfBlockCount(t *testing.T) {
	eng := newTestEngine(t, mdes.K5)
	blocks := testBlocks(t, mdes.K5, 2000)
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	for _, par := range []int{1, 4} {
		run := func(bs []*mdes.Block) {
			if _, _, err := eng.ScheduleBlocks(context.Background(), bs, par); err != nil {
				t.Fatal(err)
			}
		}
		// Workers draw pooled contexts in no fixed order, so let every
		// context meet the largest blocks and size its arena and builder.
		for i := 0; i < 20; i++ {
			run(blocks)
		}
		few := testing.AllocsPerRun(20, func() { run(blocks[:par]) })
		all := testing.AllocsPerRun(20, func() { run(blocks) })
		if all > few {
			t.Errorf("parallelism %d: %.1f allocations per call for %d blocks, %.1f for %d",
				par, all, len(blocks), few, par)
		}
	}
}

// Every ScheduleBlocks worker schedules at least one block, so each
// borrowed context merges into the attached views exactly once: the
// merge counts the views report (and the profile artifact records) do
// not depend on how the goroutines interleave.
func TestEngineScheduleBlocksMergesOncePerWorker(t *testing.T) {
	machine, err := mdes.Builtin(mdes.K5)
	if err != nil {
		t.Fatal(err)
	}
	compiled := mdes.Compile(machine, mdes.FormAndOr)
	mdes.Optimize(compiled, mdes.LevelFull)
	metrics := mdes.NewMetrics(compiled)
	eng, err := mdes.NewEngine(compiled, mdes.WithMetrics(metrics))
	if err != nil {
		t.Fatal(err)
	}
	blocks := testBlocks(t, mdes.K5, 2000)
	for _, par := range []int{1, 2, 4, 8} {
		for _, bs := range [][]*mdes.Block{blocks[:par], blocks} {
			before := metrics.Snapshot().Merges
			if _, _, err := eng.ScheduleBlocks(context.Background(), bs, par); err != nil {
				t.Fatal(err)
			}
			if got := metrics.Snapshot().Merges - before; got != int64(par) {
				t.Fatalf("parallelism %d over %d blocks: %d merges, want one per worker", par, len(bs), got)
			}
		}
	}
}

func TestEngineScheduleBlocksPropagatesError(t *testing.T) {
	eng := newTestEngine(t, mdes.SuperSPARC)
	blocks := testBlocks(t, mdes.SuperSPARC, 300)
	// An opcode missing from the MDES must surface as an error, not a hang.
	bad := &mdes.Block{Ops: []*mdes.IROperation{{Opcode: "NOSUCH"}}}
	blocks = append(blocks, bad)
	if _, _, err := eng.ScheduleBlocks(context.Background(), blocks, 4); err == nil {
		t.Fatal("expected error for unknown opcode")
	}
}

// Every scheduler refuses a register outside [0, MaxRegister) with an
// error naming the operation and the register, before the graph builder
// sizes a per-register table by it.
func TestSchedulersRefuseOutOfRangeRegisters(t *testing.T) {
	eng := newTestEngine(t, mdes.SuperSPARC)
	s := mdes.NewScheduler(eng.Compiled())
	mod := modsched.New(eng.Compiled())
	for _, reg := range []int{-1, ir.MaxRegister} {
		ops := []*mdes.IROperation{
			{Opcode: "ADD1", Dests: []int{1}, Srcs: []int{0}},
			{Opcode: "ADD1", Dests: []int{2}, Srcs: []int{1, reg}},
		}
		b := &mdes.Block{Ops: ops}
		for name, run := range map[string]func() error{
			"ScheduleBlock":         func() error { _, err := s.ScheduleBlock(b); return err },
			"ScheduleBlockBackward": func() error { _, err := s.ScheduleBlockBackward(b); return err },
			"ScheduleBlockOpDriven": func() error { _, err := s.ScheduleBlockOpDriven(b); return err },
			"Engine.ScheduleBlock":  func() error { _, err := eng.ScheduleBlock(b); return err },
			"modsched.Schedule":     func() error { _, err := mod.Schedule(&modsched.Loop{Body: b}); return err },
		} {
			err := run()
			if err == nil {
				t.Fatalf("%s accepted register %d", name, reg)
			}
			if msg := err.Error(); !strings.Contains(msg, "op 1") || !strings.Contains(msg, fmt.Sprintf("register %d ", reg)) {
				t.Fatalf("%s: error %q does not name op 1 and register %d", name, msg, reg)
			}
		}
	}
}

func TestEngineQuerySessions(t *testing.T) {
	eng := newTestEngine(t, mdes.SuperSPARC)
	q := eng.Query()
	ok, err := q.CanIssueTogether("ADD1", "LD")
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Fatal("ADD1 + LD should dual-issue on SuperSPARC")
	}
	if q.Counters().Attempts == 0 {
		t.Fatal("query session recorded no attempts")
	}
	q.Close()
	if eng.Totals().Attempts == 0 {
		t.Fatal("closed query did not fold counters into engine totals")
	}
}

// NewEngine must reject descriptions that fail validation.
func TestNewEngineValidates(t *testing.T) {
	machine, err := mdes.Builtin(mdes.SuperSPARC)
	if err != nil {
		t.Fatal(err)
	}
	compiled := mdes.Compile(machine, mdes.FormAndOr)
	compiled.Trees[0].Options = nil // corrupt: tree with no options
	if _, err := mdes.NewEngine(compiled); err == nil {
		t.Fatal("NewEngine accepted an invalid description")
	}
}
