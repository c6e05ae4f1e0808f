package mdes_test

import (
	"testing"

	"mdes"
)

// BenchmarkBlockSchedulers measures one pass of each block scheduler —
// cycle-driven list, backward list (§7) and operation-driven (§4) — over
// every block of the fixed-seed 2000-op workload, on the fully optimized
// AND/OR description. One Scheduler serves every pass, so B/op and
// allocs/op are the steady-state per-pass cost.
func BenchmarkBlockSchedulers(b *testing.B) {
	for _, name := range []mdes.BuiltinName{mdes.K5, mdes.SuperSPARC} {
		machine, err := mdes.Builtin(name)
		if err != nil {
			b.Fatal(err)
		}
		compiled := mdes.Compile(machine, mdes.FormAndOr)
		mdes.Optimize(compiled, mdes.LevelFull)
		s := mdes.NewScheduler(compiled)
		blocks := testBlocks(b, name, 2000)
		for _, sc := range []struct {
			name string
			run  func(*mdes.Block) (*mdes.Result, error)
		}{
			{"list", s.ScheduleBlock},
			{"backward", s.ScheduleBlockBackward},
			{"opdriven", s.ScheduleBlockOpDriven},
		} {
			b.Run(string(name)+"/"+sc.name, func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					for _, blk := range blocks {
						if _, err := sc.run(blk); err != nil {
							b.Fatal(err)
						}
					}
				}
			})
		}
	}
}
