package sched

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"mdes/internal/hmdes"
	"mdes/internal/ir"
	"mdes/internal/lowlevel"
	"mdes/internal/machines"
	"mdes/internal/mdgen"
	"mdes/internal/opt"
	"mdes/internal/resctx"
	"mdes/internal/workload"
)

// longReservations returns a machine whose one operation holds its one
// resource for 100 cycles, and a block of 40 independent such operations.
func longReservations(t *testing.T) (*hmdes.Machine, *ir.Block) {
	t.Helper()
	var src strings.Builder
	src.WriteString("machine Long {\n  resource R;\n  class busy { use ")
	for c := 0; c < 100; c++ {
		if c > 0 {
			src.WriteString(", ")
		}
		fmt.Fprintf(&src, "R @ %d", c)
	}
	src.WriteString("; }\n  operation OP class busy latency 1;\n}\n")
	m, err := hmdes.Load("long", src.String())
	if err != nil {
		t.Fatal(err)
	}
	b := &ir.Block{}
	for i := 0; i < 40; i++ {
		b.Ops = append(b.Ops, &ir.Operation{Opcode: "OP", Dests: []int{i}})
	}
	return m, b
}

// A non-pipelined unit holds its one resource for 100 cycles, far beyond
// any fixed per-operation allowance: 40 independent operations need a
// 3,901-cycle schedule, and every scheduler must find it within the
// horizon the description's usage span gives.
func TestHorizonCoversLongReservations(t *testing.T) {
	m, b := longReservations(t)
	for _, form := range []lowlevel.Form{lowlevel.FormOR, lowlevel.FormAndOr} {
		ll := lowlevel.Compile(m, form)
		opt.Apply(ll, opt.LevelFull, opt.Forward)
		s := New(ll)
		s.SelfCheck = true
		if span := ll.UsageSpan(); span != 100 {
			t.Fatalf("%v: usage span %d, want 100", form, span)
		}
		for name, run := range schedulers {
			r, err := run(s, b)
			if err != nil {
				t.Fatalf("%v %s: %v", form, name, err)
			}
			if r.Length != 3901 {
				t.Fatalf("%v %s: length %d, want 3901", form, name, r.Length)
			}
		}
	}
}

// A cancelled call stops even a block that runs long: the cycle-driven
// loop within pollCycles passes of at most one attempt per operation, the
// operation-driven loop within pollCycles probes. Uncancelled, each
// scheduler spends over ten times that on the block.
func TestCancelledBlockStopsWithinPoll(t *testing.T) {
	m, b := longReservations(t)
	ll := lowlevel.Compile(m, lowlevel.FormAndOr)
	opt.Apply(ll, opt.LevelFull, opt.Forward)
	s := New(ll)
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	n := int64(len(b.Ops))
	for _, tc := range []struct {
		name  string
		run   func(context.Context, *ir.Block, *Result) error
		bound int64
	}{
		{"list", s.ScheduleBlockInto, pollCycles * n},
		{"backward", func(ctx context.Context, b *ir.Block, res *Result) error {
			return s.cycleDriven(ctx, b, backward, res)
		}, pollCycles * n},
		{"opdriven", s.opDriven, pollCycles},
	} {
		var full, stopped Result
		if err := tc.run(context.Background(), b, &full); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if err := tc.run(cancelled, b, &stopped); !errors.Is(err, context.Canceled) {
			t.Fatalf("%s: cancelled call returned %v", tc.name, err)
		}
		if got := stopped.Counters.Attempts; got == 0 || got > tc.bound {
			t.Errorf("%s: %d attempts before stopping, want 1..%d", tc.name, got, tc.bound)
		}
		if full.Counters.Attempts < 10*tc.bound {
			t.Errorf("%s: the whole block takes only %d attempts", tc.name, full.Counters.Attempts)
		}
	}
}

// randomGenBlock builds a random well-formed block over a compiled
// description's operations: register flow, loads and stores, cascaded
// consumers where the operation has a cascaded class, and a final
// branch.
func randomGenBlock(r *rand.Rand, m *lowlevel.MDES, n int) *ir.Block {
	b := &ir.Block{}
	next := 4
	for i := 0; i < n; i++ {
		idx := r.Intn(len(m.Operations))
		o := &ir.Operation{Opcode: m.Operations[idx].Name, Srcs: []int{r.Intn(next)}}
		if r.Intn(3) > 0 {
			o.Dests = []int{next}
			next++
		}
		switch r.Intn(6) {
		case 0:
			o.Mem = ir.MemLoad
		case 1:
			o.Mem = ir.MemStore
		}
		o.Cascaded = m.Operations[idx].Cascaded >= 0 && r.Intn(2) == 0
		b.Ops = append(b.Ops, o)
	}
	b.Ops[n-1].Branch = true
	return b
}

// The three schedulers produce dependence-legal schedules (SelfCheck) on
// random blocks over the first 50 generated machines of the differential
// sweep, in both forms, fully optimized under both shift directions.
func TestSchedulersOnGeneratedMachines(t *testing.T) {
	for seed := int64(1996); seed < 1996+50; seed++ {
		mach, err := mdgen.Generate(seed).Machine()
		if err != nil {
			t.Fatal(err)
		}
		for _, form := range []lowlevel.Form{lowlevel.FormOR, lowlevel.FormAndOr} {
			for _, dir := range []opt.Direction{opt.Forward, opt.Backward} {
				ll := lowlevel.Compile(mach, form)
				opt.Apply(ll, opt.LevelFull, dir)
				s := New(ll)
				s.SelfCheck = true
				r := rand.New(rand.NewSource(seed))
				for k := 0; k < 4; k++ {
					b := randomGenBlock(r, ll, 2+r.Intn(30))
					for name, run := range schedulers {
						if _, err := run(s, b); err != nil {
							t.Fatalf("seed %d %v/%v %s block %d: %v", seed, form, dir, name, k, err)
						}
					}
				}
			}
		}
	}
}

// Backward and operation-driven scheduling share the list path's setup,
// so they allocate per block exactly what it does: the Result and its
// Issue slice.
func TestSchedulersAllocateLikeList(t *testing.T) {
	ll := lowlevel.Compile(machines.MustLoad(machines.K5), lowlevel.FormAndOr)
	opt.Apply(ll, opt.LevelFull, opt.Forward)
	prog, err := workload.Generate(workload.Config{Machine: machines.K5, NumOps: 500, Seed: 1996})
	if err != nil {
		t.Fatal(err)
	}
	s := New(ll)
	perBlock := map[string]float64{}
	for name, run := range schedulers {
		pass := func() {
			for _, b := range prog.Blocks {
				if _, err := run(s, b); err != nil {
					t.Fatal(err)
				}
			}
		}
		pass() // grow the arena and the builder to the workload's size
		perBlock[name] = testing.AllocsPerRun(20, pass) / float64(len(prog.Blocks))
	}
	for _, name := range []string{"backward", "opdriven"} {
		if perBlock[name] > perBlock["list"] {
			t.Errorf("%s allocates %.2f per block, list %.2f", name, perBlock[name], perBlock["list"])
		}
	}
	if perBlock["list"] > 2 {
		t.Errorf("list allocates %.2f per block, want at most 2 (Result, Issue)", perBlock["list"])
	}
}

// On an automaton context the random-access schedulers refuse up front
// with the monotonic-only error instead of panicking in the cursor, and
// the refusal leaves the context fit for the forward list scheduler.
func TestRandomAccessSchedulersRefuseAutomaton(t *testing.T) {
	ll := lowlevel.Compile(machines.MustLoad(machines.K5), lowlevel.FormAndOr)
	opt.Apply(ll, opt.LevelFull, opt.Forward)
	prog, err := workload.Generate(workload.Config{Machine: machines.K5, NumOps: 200, Seed: 1996})
	if err != nil {
		t.Fatal(err)
	}
	pool, err := resctx.NewPool(ll, resctx.KindAutomaton)
	if err != nil {
		t.Fatal(err)
	}
	cx := pool.Get()
	defer cx.Release()
	s := NewWithContext(ll, cx)
	ref := New(ll)
	for bi, b := range prog.Blocks {
		for name, run := range map[string]func(*ir.Block) (*Result, error){
			"backward": s.ScheduleBlockBackward,
			"opdriven": s.ScheduleBlockOpDriven,
		} {
			if _, err := run(b); err == nil || !strings.Contains(err.Error(), "the automaton backend is monotonic-only") {
				t.Fatalf("block %d %s on the automaton: err = %v", bi, name, err)
			}
		}
		got, err := s.ScheduleBlock(b)
		if err != nil {
			t.Fatalf("block %d list on the automaton: %v", bi, err)
		}
		want, err := ref.ScheduleBlock(b)
		if err != nil {
			t.Fatal(err)
		}
		if got.Length != want.Length || !slices.Equal(got.Issue, want.Issue) {
			t.Fatalf("block %d: automaton schedule %v, probe plan %v", bi, got.Issue, want.Issue)
		}
	}
}
