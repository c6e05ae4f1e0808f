package sched

import (
	"sync"
	"testing"

	"mdes/internal/lowlevel"
	"mdes/internal/machines"
	"mdes/internal/opt"
	"mdes/internal/resctx"
	"mdes/internal/workload"
)

// Eight goroutines share one frozen compiled MDES, each scheduling the
// whole workload through its own pooled context; every goroutine must
// reproduce the serial run's schedule lengths exactly. Run under -race
// this is the data-race proof of the freeze/borrow contract: the MDES is
// read-shared, all mutable state is per-context.
func TestConcurrentSchedulersShareFrozenMDES(t *testing.T) {
	for _, name := range []machines.Name{machines.K5, machines.SuperSPARC} {
		name := name
		t.Run(string(name), func(t *testing.T) {
			t.Parallel()
			hm, err := machines.Load(name)
			if err != nil {
				t.Fatal(err)
			}
			m := lowlevel.Compile(hm, lowlevel.FormAndOr)
			opt.Apply(m, opt.LevelFull, opt.Forward)
			if err := m.Freeze(); err != nil {
				t.Fatal(err)
			}
			prog, err := workload.Generate(workload.Config{Machine: name, NumOps: 3000, Seed: 1996})
			if err != nil {
				t.Fatal(err)
			}

			serial, _, err := New(m).ScheduleAll(prog.Blocks)
			if err != nil {
				t.Fatal(err)
			}
			wantLen := make([]int, len(serial))
			for i, r := range serial {
				wantLen[i] = r.Length
			}

			pool, err := resctx.NewPool(m, resctx.KindProbePlan)
			if err != nil {
				t.Fatal(err)
			}
			const goroutines = 8
			var wg sync.WaitGroup
			errs := make([]error, goroutines)
			lens := make([][]int, goroutines)
			for g := 0; g < goroutines; g++ {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					cx := pool.Get()
					defer cx.Release()
					s := NewWithContext(m, cx)
					got := make([]int, len(prog.Blocks))
					for bi, b := range prog.Blocks {
						r, err := s.ScheduleBlock(b)
						if err != nil {
							errs[g] = err
							return
						}
						got[bi] = r.Length
					}
					lens[g] = got
				}(g)
			}
			wg.Wait()
			for g := 0; g < goroutines; g++ {
				if errs[g] != nil {
					t.Fatalf("goroutine %d: %v", g, errs[g])
				}
				for bi, l := range lens[g] {
					if l != wantLen[bi] {
						t.Fatalf("goroutine %d block %d: length %d, serial %d", g, bi, l, wantLen[bi])
					}
				}
			}

			// The pool's totals must equal 8x the serial totals: counters are
			// deterministic per block and every context was released.
			var serialTotal int64
			for _, r := range serial {
				serialTotal += r.Counters.Attempts
			}
			if got := pool.Totals().Attempts; got != goroutines*serialTotal {
				t.Fatalf("pool totals attempts = %d, want %d", got, goroutines*serialTotal)
			}
		})
	}
}

// Freezing must reject invalid descriptions and make opt.Apply panic.
func TestFreezeContract(t *testing.T) {
	hm, err := machines.Load(machines.SuperSPARC)
	if err != nil {
		t.Fatal(err)
	}
	m := lowlevel.Compile(hm, lowlevel.FormAndOr)
	if m.Frozen() {
		t.Fatal("fresh MDES already frozen")
	}
	if err := m.Freeze(); err != nil {
		t.Fatal(err)
	}
	if !m.Frozen() {
		t.Fatal("Freeze did not mark MDES frozen")
	}
	if err := m.Freeze(); err != nil {
		t.Fatalf("second Freeze: %v", err)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("opt.Apply on frozen MDES did not panic")
		}
	}()
	opt.Apply(m, opt.LevelFull, opt.Forward)
}
