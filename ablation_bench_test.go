// Ablation benchmarks for the related-work comparisons of §10 (DESIGN.md
// experiment index): the finite-state-automaton baseline versus
// reservation tables, and Eichenberger-Davidson usage minimization versus
// the usage-time transformation.
package mdes_test

import (
	"math/rand"
	"testing"

	"mdes/internal/automata"
	"mdes/internal/eichen"
	"mdes/internal/lowlevel"
	"mdes/internal/machines"
	"mdes/internal/opt"
	"mdes/internal/probeplan"
	"mdes/internal/stats"
)

// newProber compiles m's probe plan into a fresh reservation table.
func newProber(tb testing.TB, m *lowlevel.MDES) *probeplan.Prober {
	tb.Helper()
	plan, err := probeplan.Compile(m)
	if err != nil {
		tb.Fatal(err)
	}
	return probeplan.NewProber(plan)
}

// issueStream builds a deterministic (class, arrival) stream for ablation
// scheduling runs.
func issueStream(m *lowlevel.MDES, n int, seed int64) ([]int, []int) {
	r := rand.New(rand.NewSource(seed))
	classes := make([]int, n)
	arrivals := make([]int, n)
	for i := range classes {
		classes[i] = r.Intn(len(m.Constraints))
		arrivals[i] = i / 3
	}
	return classes, arrivals
}

// BenchmarkAblation_Automaton compares hazard detection through the
// collision automaton against the reservation tables on identical issue
// streams (fully optimized AND/OR SuperSPARC). It reports the automaton's
// state count and the tables' checks for the same work.
func BenchmarkAblation_Automaton(b *testing.B) {
	m, err := machines.Load(machines.SuperSPARC)
	if err != nil {
		b.Fatal(err)
	}
	ll := lowlevel.Compile(m, lowlevel.FormAndOr)
	opt.Apply(ll, opt.LevelFull, opt.Forward)
	classes, arrivals := issueStream(ll, 5000, 11)

	b.Run("reservation-tables", func(b *testing.B) {
		var checks int64
		for i := 0; i < b.N; i++ {
			ru := newProber(b, ll)
			var c stats.Counters
			floor := 0
			for k, class := range classes {
				cy := arrivals[k]
				if floor > cy {
					cy = floor
				}
				for {
					sel, ok := ru.Check(ll.Constraints[class], cy, &c)
					if ok {
						ru.Reserve(sel)
						break
					}
					cy++
				}
				floor = cy
			}
			checks = c.ResourceChecks
		}
		b.ReportMetric(float64(checks)/float64(len(classes)), "checks/op")
	})

	b.Run("automaton", func(b *testing.B) {
		var states int
		for i := 0; i < b.N; i++ {
			a, err := automata.New(ll)
			if err != nil {
				b.Fatal(err)
			}
			st := a.Start()
			cycle := 0
			for k, class := range classes {
				for cycle < arrivals[k] {
					st = a.Advance(st)
					cycle++
				}
				for {
					next, ok := a.TryIssue(st, class)
					if ok {
						st = next
						break
					}
					st = a.Advance(st)
					cycle++
				}
			}
			states = a.States()
		}
		b.ReportMetric(float64(states), "dfa-states")
	})
}

// BenchmarkAblation_Eichenberger compares the E&D reduction against this
// paper's usage-time transformation on the OR-form Pentium description:
// both drive checks/option toward one, by different means.
func BenchmarkAblation_Eichenberger(b *testing.B) {
	load := func() *lowlevel.MDES {
		m, err := machines.Load(machines.Pentium)
		if err != nil {
			b.Fatal(err)
		}
		ll := lowlevel.Compile(m, lowlevel.FormOR)
		opt.EliminateRedundant(ll)
		opt.PruneDominatedOptions(ll)
		return ll
	}
	checksPerOption := func(ll *lowlevel.MDES) float64 {
		classes, arrivals := issueStream(ll, 5000, 13)
		ru := newProber(b, ll)
		var c stats.Counters
		floor := 0
		for k, class := range classes {
			cy := arrivals[k]
			if floor > cy {
				cy = floor
			}
			for {
				sel, ok := ru.Check(ll.Constraints[class], cy, &c)
				if ok {
					ru.Reserve(sel)
					break
				}
				cy++
			}
			floor = cy
		}
		return c.ChecksPerOption()
	}

	b.Run("eichenberger-davidson", func(b *testing.B) {
		var cpo float64
		for i := 0; i < b.N; i++ {
			ll := load()
			eichen.Reduce(ll)
			opt.PackBitVectors(ll)
			cpo = checksPerOption(ll)
		}
		b.ReportMetric(cpo, "checks/option")
	})

	b.Run("usage-time-shift", func(b *testing.B) {
		var cpo float64
		for i := 0; i < b.N; i++ {
			ll := load()
			opt.PackBitVectors(ll)
			opt.ShiftUsageTimes(ll, opt.Forward)
			opt.SortUsagesTimeZeroFirst(ll)
			cpo = checksPerOption(ll)
		}
		b.ReportMetric(cpo, "checks/option")
	})

	b.Run("combined", func(b *testing.B) {
		var cpo float64
		for i := 0; i < b.N; i++ {
			ll := load()
			eichen.Reduce(ll)
			opt.PackBitVectors(ll)
			opt.ShiftUsageTimes(ll, opt.Forward)
			opt.SortUsagesTimeZeroFirst(ll)
			cpo = checksPerOption(ll)
		}
		b.ReportMetric(cpo, "checks/option")
	})
}
