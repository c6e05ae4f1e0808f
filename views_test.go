package mdes_test

import (
	"context"
	"reflect"
	"testing"

	"mdes"
)

// viewOutputs is what each observation view reports for one run, with
// the wall-clock fields (check latencies, block wall times, quantiles,
// latency-dependent triggers) left out: those differ between any two
// runs, attached views or not.
type viewOutputs struct {
	metrics []any
	profile mdes.ProfileSnapshot
	flight  []any
	trace   []*mdes.TraceRecord
}

// flightCounters is one flight entry without its wall time, merge
// sequence and trigger.
type flightCounters struct {
	Block                                            int64
	Phase                                            string
	Ops, Length                                      int32
	Attempts, Options, Checks, Conflicts, Backtracks int64
}

const (
	viewMetrics = 1 << iota
	viewProfile
	viewFlight
	viewTracer
	numViewSets = 1 << 4
)

// runViews schedules blocks at parallelism 1 on an engine with the views
// named by mask attached and returns what each attached view recorded.
func runViews(t *testing.T, compiled *mdes.Compiled, blocks []*mdes.Block, mask int) viewOutputs {
	t.Helper()
	var (
		opts    []mdes.EngineOption
		metrics *mdes.Metrics
		prof    *mdes.ConflictProfile
		rec     *mdes.FlightRecorder
		ring    *mdes.TraceRing
	)
	if mask&viewMetrics != 0 {
		metrics = mdes.NewMetrics(compiled)
		opts = append(opts, mdes.WithMetrics(metrics))
	}
	if mask&viewProfile != 0 {
		prof = mdes.NewConflictProfile(compiled)
		opts = append(opts, mdes.WithProfile(prof))
	}
	if mask&viewFlight != 0 {
		rec = mdes.NewFlightRecorder(mdes.FlightConfig{})
		opts = append(opts, mdes.WithFlight(rec))
	}
	if mask&viewTracer != 0 {
		var tracer mdes.Tracer
		tracer, ring = mdes.NewRingTracer(len(blocks), 1)
		opts = append(opts, mdes.WithTracer(tracer))
	}
	eng, err := mdes.NewEngine(compiled, opts...)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := eng.ScheduleBlocks(context.Background(), blocks, 1); err != nil {
		t.Fatal(err)
	}

	var out viewOutputs
	if metrics != nil {
		s := metrics.Snapshot()
		for _, p := range s.Phases {
			out.metrics = append(out.metrics, [6]any{p.Phase, p.Attempts, p.OptionsChecked, p.ResourceChecks, p.Conflicts, p.Backtracks})
		}
		for _, c := range s.Classes {
			out.metrics = append(out.metrics, c)
		}
		for _, r := range s.Resources {
			out.metrics = append(out.metrics, r)
		}
	}
	if prof != nil {
		out.profile = prof.Snapshot()
	}
	if rec != nil {
		s := rec.Snapshot()
		out.flight = append(out.flight, s.Blocks)
		for _, e := range s.Recent {
			out.flight = append(out.flight, flightCounters{
				Block: e.Block, Phase: e.PhaseName, Ops: e.Ops, Length: e.Length,
				Attempts: e.Attempts, Options: e.Options, Checks: e.Checks,
				Conflicts: e.Conflicts, Backtracks: e.Backtracks,
			})
		}
	}
	if ring != nil {
		out.trace = ring.Snapshot()
	}
	return out
}

// Every observation view must report the same thing whichever other
// views share the engine: for each of the 15 non-empty subsets of
// {metrics, profile, flight, tracer}, each attached view's output must
// equal its output when attached alone — metrics counts by phase, class
// and resource, the profile snapshot, flight per-block counters and
// block IDs, and trace events.
func TestObservationViewsIndependent(t *testing.T) {
	for _, name := range mdes.Builtins() {
		machine, err := mdes.Builtin(name)
		if err != nil {
			t.Fatal(err)
		}
		blocks := testBlocks(t, name, 2000)
		for _, form := range []mdes.Form{mdes.FormOR, mdes.FormAndOr} {
			compiled := mdes.Compile(machine, form)
			mdes.Optimize(compiled, mdes.LevelFull)

			var alone [4]viewOutputs
			for v := 0; v < 4; v++ {
				alone[v] = runViews(t, compiled, blocks, 1<<v)
			}
			if len(alone[0].metrics) == 0 || alone[1].profile.Merges == 0 ||
				len(alone[2].flight) <= 1 || len(alone[3].trace) != len(blocks) {
				t.Fatalf("%s/%v: single-view runs recorded nothing", name, form)
			}
			for mask := 1; mask < numViewSets; mask++ {
				got := runViews(t, compiled, blocks, mask)
				if mask&viewMetrics != 0 && !reflect.DeepEqual(got.metrics, alone[0].metrics) {
					t.Errorf("%s/%v views %04b: metrics differ from metrics alone", name, form, mask)
				}
				if mask&viewProfile != 0 && !reflect.DeepEqual(got.profile, alone[1].profile) {
					t.Errorf("%s/%v views %04b: profile differs from profile alone", name, form, mask)
				}
				if mask&viewFlight != 0 && !reflect.DeepEqual(got.flight, alone[2].flight) {
					t.Errorf("%s/%v views %04b: flight differs from flight alone", name, form, mask)
				}
				if mask&viewTracer != 0 && !reflect.DeepEqual(got.trace, alone[3].trace) {
					t.Errorf("%s/%v views %04b: trace differs from tracer alone", name, form, mask)
				}
			}
		}
	}
}
