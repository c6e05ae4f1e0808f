package mdes_test

import (
	"context"
	"io"
	"testing"

	"mdes"
	"mdes/internal/workload"
)

// BenchmarkObsOverhead measures the cost of each observation view on the
// parallel scheduling hot path, relative to the disabled baseline — the
// per-view cost of the one observation buffer in one command:
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
//	trace-ring   full tracing into an in-memory ring on top of metrics
//	trace-jsonl  full tracing serialized to a discarded JSONL stream
func BenchmarkObsOverhead(b *testing.B) {
	machine, err := mdes.Builtin(mdes.K5)
	if err != nil {
		b.Fatal(err)
	}
	compiled := mdes.Compile(machine, mdes.FormAndOr)
	mdes.Optimize(compiled, mdes.LevelFull)
	prog, err := workload.GenerateParallel(workload.Config{Machine: mdes.K5, NumOps: 20000, Seed: 1996}, 4)
	if err != nil {
		b.Fatal(err)
	}
	blocks := make([]*mdes.Block, len(prog.Blocks))
	copy(blocks, prog.Blocks)

	variants := []struct {
		name string
		opts func() []mdes.EngineOption
	}{
		{"disabled", func() []mdes.EngineOption { return nil }},
		{"metrics", func() []mdes.EngineOption {
			return []mdes.EngineOption{mdes.WithMetrics(mdes.NewMetrics(compiled))}
		}},
		{"profile", func() []mdes.EngineOption {
			return []mdes.EngineOption{mdes.WithProfile(mdes.NewConflictProfile(compiled))}
		}},
		{"flight", func() []mdes.EngineOption {
			return []mdes.EngineOption{mdes.WithFlight(mdes.NewFlightRecorder(mdes.FlightConfig{}))}
		}},
		{"all", func() []mdes.EngineOption {
			return []mdes.EngineOption{
				mdes.WithMetrics(mdes.NewMetrics(compiled)),
				mdes.WithProfile(mdes.NewConflictProfile(compiled)),
				mdes.WithFlight(mdes.NewFlightRecorder(mdes.FlightConfig{})),
			}
		}},
		{"trace-ring", func() []mdes.EngineOption {
			tracer, _ := mdes.NewRingTracer(1024, 1)
			return []mdes.EngineOption{
				mdes.WithMetrics(mdes.NewMetrics(compiled)),
				mdes.WithTracer(tracer),
			}
		}},
		{"trace-jsonl", func() []mdes.EngineOption {
			return []mdes.EngineOption{mdes.WithTracer(mdes.NewJSONLTracer(io.Discard, 1))}
		}},
	}
	for _, v := range variants {
		b.Run(v.name, func(b *testing.B) {
			eng, err := mdes.NewEngine(compiled, v.opts()...)
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, _, err := eng.ScheduleBlocks(context.Background(), blocks, 4); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(len(blocks))*float64(b.N)/b.Elapsed().Seconds(), "blocks/s")
		})
	}
}
