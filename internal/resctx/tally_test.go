package resctx

import (
	"math/rand"
	"reflect"
	"testing"

	"mdes/internal/lowlevel"
	"mdes/internal/machines"
	"mdes/internal/obs"
	"mdes/internal/obs/profile"
	"mdes/internal/probeplan"
	"mdes/internal/stats"
)

// Property: a prober tallying its own probes (Context.Observe on a
// probe-plan context whose views count) fills the observation buffer's
// tally exactly as the Attempt and Conflict events would. Over random
// Place and Probe streams, negative cycles included, a second buffer on
// the same views is fed those events from what each probe returned (the
// options checked, success, the chosen options and, for a failure,
// Prober.Blocked); the two tallies — per-constraint counts, selections,
// first-failing trees, blocking resources and their journals — agree at
// every step. Besides placeCases' descriptions it runs each one's arena
// view where that adopts the persisted probe plan, whose spans must
// number slots as the profile's layout does.
func TestProberTallyMatchesEvents(t *testing.T) {
	cases := placeCases(t)
	for _, pc := range cases[:len(machines.All)*4] {
		buf, err := pc.m.EncodeArena()
		if err != nil {
			t.Fatalf("%s: %v", pc.name, err)
		}
		a, err := lowlevel.OpenArena(buf)
		if err != nil {
			t.Fatalf("%s: %v", pc.name, err)
		}
		if view := a.FrozenMDES(); view.ArenaPlan() != nil {
			cases = append(cases, placeCase{pc.name + "/arena", view})
		}
	}
	for ci, pc := range cases {
		m := pc.m
		views := &obs.Views{
			Metrics: obs.NewRegistry(m.ConstraintNames(), m.ResourceNames),
			Profile: profile.New(m),
			MDES:    m,
		}
		pool, err := NewPool(m, KindProbePlan)
		if err != nil {
			t.Fatalf("%s: %v", pc.name, err)
		}
		pool.Observe(views)
		c := pool.Get()
		if !c.tallied {
			t.Fatalf("%s: a counting view did not make the prober tally", pc.name)
		}
		ref := views.NewLocal()
		r := rand.New(rand.NewSource(int64(ci) + 1))
		var ctr stats.Counters
		for step := 0; step < 200; step++ {
			if r.Intn(50) == 0 {
				c.ResetReservations()
			}
			con := m.Constraints[r.Intn(len(m.Constraints))]
			cycle := r.Intn(40) - 6
			var chosen []int
			var ok bool
			var opts int64
			if r.Intn(4) == 0 {
				var sel probeplan.Selection
				sel, ok, opts = c.Probe(obs.PhaseList, step, "op", con, cycle, &ctr)
				chosen = sel.Chosen
			} else {
				chosen, ok, opts = c.Place(obs.PhaseList, step, "op", con, cycle, &ctr)
			}
			ref.Attempt(obs.PhaseList, con, step, "op", cycle, opts, 0, -1, ok, chosen)
			if !ok {
				ref.Conflict(c.PP.Blocked())
			}
			if got, want := c.Obs.Tally(), ref.Tally(); !reflect.DeepEqual(got, want) {
				t.Fatalf("%s step %d (%s at %d, ok=%v): prober tally %+v, events %+v",
					pc.name, step, con.Name, cycle, ok, got, want)
			}
		}
		c.Release()
	}
}
