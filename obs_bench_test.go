package mdes_test

import (
	"context"
	"io"
	"testing"

	"mdes"
	"mdes/internal/obs"
	"mdes/internal/sched"
	"mdes/internal/trace"
	"mdes/internal/workload"
)

// BenchmarkObsOverhead measures the cost of each observation view on the
// scheduling hot path, relative to the disabled baseline — the per-view
// cost of the one observation buffer in one command. The engine variants
// schedule at parallelism 4; the two trace variants run at parallelism 1,
// as the trace is rendered, on one borrowed context:
//
//	disabled     no views — the nil fast path
//	metrics      per-phase/per-class registry attached (sampled timestamps +
//	             buffer bumps per Check, one merge per context release);
//	             TestEnabledMetricsOverheadGate holds it within 5% of
//	             disabled on the flat serial path
//	profile      conflict profile attached (TestEnabledProfileOverheadGate,
//	             <5%)
//	flight       flight recorder attached: no per-attempt work, one clock
//	             reading and one ring entry per block
//	             (TestFlightRecorderOverheadGate, <2%)
//	all          metrics + profile + flight, as every mdesd tenant runs
//	             (TestAllViewsOverheadGate, <12%)
//	trace-ring   the trace view alone, its records discarded
//	trace-jsonl  trace.Render of a recording of the workload to io.Discard
//	             (what `mdtrace dump -jsonl` costs)
func BenchmarkObsOverhead(b *testing.B) {
	compiled := freshCompiled(b, mdes.K5, mdes.FormAndOr, mdes.LevelFull)
	prog, err := workload.GenerateParallel(workload.Config{Machine: mdes.K5, NumOps: 20000, Seed: 1996}, 4)
	if err != nil {
		b.Fatal(err)
	}
	blocks := make([]*mdes.Block, len(prog.Blocks))
	copy(blocks, prog.Blocks)

	engine := func(b *testing.B, opts ...mdes.EngineOption) func() error {
		eng, err := mdes.NewEngine(compiled, opts...)
		if err != nil {
			b.Fatal(err)
		}
		return func() error {
			_, _, err := eng.ScheduleBlocks(context.Background(), blocks, 4)
			return err
		}
	}
	variants := []struct {
		name  string
		setup func(*testing.B) func() error
	}{
		{"disabled", func(b *testing.B) func() error { return engine(b) }},
		{"metrics", func(b *testing.B) func() error { return engine(b, mdes.WithMetrics(mdes.NewMetrics(compiled))) }},
		{"profile", func(b *testing.B) func() error { return engine(b, mdes.WithProfile(mdes.NewConflictProfile(compiled))) }},
		{"flight", func(b *testing.B) func() error {
			return engine(b, mdes.WithFlight(mdes.NewFlightRecorder(mdes.FlightConfig{})))
		}},
		{"all", func(b *testing.B) func() error {
			return engine(b,
				mdes.WithMetrics(mdes.NewMetrics(compiled)),
				mdes.WithProfile(mdes.NewConflictProfile(compiled)),
				mdes.WithFlight(mdes.NewFlightRecorder(mdes.FlightConfig{})))
		}},
		{"trace-ring", func(b *testing.B) func() error {
			pool := observedPool(b, compiled, &obs.Views{MDES: compiled, Trace: func(*obs.BlockRecord) {}})
			return func() error {
				cx := pool.Get()
				defer cx.Release()
				_, _, err := sched.NewWithContext(compiled, cx).ScheduleAll(blocks)
				return err
			}
		}},
		{"trace-jsonl", func(b *testing.B) func() error {
			traced, rec := recordTrace(b, mdes.K5, mdes.FormAndOr, trace.Workload{Blocks: blocks}, 4)
			return func() error { return trace.Render(io.Discard, traced, rec) }
		}},
	}
	for _, v := range variants {
		b.Run(v.name, func(b *testing.B) {
			run := v.setup(b)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := run(); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(len(blocks))*float64(b.N)/b.Elapsed().Seconds(), "blocks/s")
		})
	}
}
