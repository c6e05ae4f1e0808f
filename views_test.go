package mdes_test

import (
	"reflect"
	"testing"

	"mdes"
	"mdes/internal/obs"
	"mdes/internal/resctx"
	"mdes/internal/sched"
)

// viewOutputs is what each observation view reports for one run, with
// the wall-clock fields (check latencies, block wall times, quantiles,
// latency-dependent triggers) left out: those differ between any two
// runs, attached views or not.
type viewOutputs struct {
	metrics []any
	profile mdes.ProfileSnapshot
	flight  []any
	trace   []obs.BlockRecord
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
	viewTrace
	numViewSets = 1 << 4
)

// runViews schedules blocks serially on one context borrowed from a pool
// observing the views named by mask — resctx.Pool.Observe, the attach
// point NewEngine and trace.Render share — and returns what each attached
// view recorded.
func runViews(t *testing.T, compiled *mdes.Compiled, blocks []*mdes.Block, mask int) viewOutputs {
	t.Helper()
	var out viewOutputs
	views := &obs.Views{MDES: compiled}
	if mask&viewMetrics != 0 {
		views.Metrics = mdes.NewMetrics(compiled)
	}
	if mask&viewProfile != 0 {
		views.Profile = mdes.NewConflictProfile(compiled)
	}
	if mask&viewFlight != 0 {
		views.Flight = mdes.NewFlightRecorder(mdes.FlightConfig{})
	}
	if mask&viewTrace != 0 {
		views.Trace = func(r *obs.BlockRecord) {
			kept := *r
			kept.Events = append([]obs.Event(nil), r.Events...)
			out.trace = append(out.trace, kept)
		}
	}
	cx := observedPool(t, compiled, views).Get()
	_, _, err := sched.NewWithContext(compiled, cx).ScheduleAll(blocks)
	cx.Release()
	if err != nil {
		t.Fatal(err)
	}

	if views.Metrics != nil {
		s := views.Metrics.Snapshot()
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
	if views.Profile != nil {
		out.profile = views.Profile.Snapshot()
	}
	if views.Flight != nil {
		s := views.Flight.Snapshot()
		out.flight = append(out.flight, s.Blocks)
		for _, e := range s.Recent {
			out.flight = append(out.flight, flightCounters{
				Block: e.Block, Phase: e.PhaseName, Ops: e.Ops, Length: e.Length,
				Attempts: e.Attempts, Options: e.Options, Checks: e.Checks,
				Conflicts: e.Conflicts, Backtracks: e.Backtracks,
			})
		}
	}
	return out
}

// observedPool freezes compiled and returns a default-backend context
// pool whose contexts fold into views.
func observedPool(tb testing.TB, compiled *mdes.Compiled, views *obs.Views) *resctx.Pool {
	tb.Helper()
	pool, err := resctx.NewPool(compiled, resctx.KindProbePlan)
	if err != nil {
		tb.Fatal(err)
	}
	pool.Observe(views)
	return pool
}

// Every observation view must report the same thing whichever other
// views share the buffer: for each of the 15 non-empty subsets of
// {metrics, profile, flight, trace}, each attached view's output must
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
				if mask&viewTrace != 0 && !reflect.DeepEqual(got.trace, alone[3].trace) {
					t.Errorf("%s/%v views %04b: trace differs from trace alone", name, form, mask)
				}
			}
		}
	}
}

// The views an engine stamps report the description's fingerprint,
// computed on first use rather than by NewEngine.
func TestEngineViewsShareFingerprint(t *testing.T) {
	c := freshCompiled(t, mdes.K5, mdes.FormAndOr, mdes.LevelFull)
	want, err := c.Fingerprint()
	if err != nil {
		t.Fatal(err)
	}
	flight := mdes.NewFlightRecorder(mdes.FlightConfig{})
	prof := mdes.NewConflictProfile(c)
	if _, err := mdes.NewEngine(c, mdes.WithFlight(flight), mdes.WithProfile(prof)); err != nil {
		t.Fatal(err)
	}
	if got := prof.Snapshot().Meta.MachineHash; got != want {
		t.Fatalf("profile stamped %q, want %s", got, want)
	}
	if got := flight.Snapshot().MachineHash; got != want {
		t.Fatalf("flight recorder stamped %q, want %s", got, want)
	}
}
