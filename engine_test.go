package mdes_test

import (
	"context"
	"errors"
	"fmt"
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
