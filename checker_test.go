package mdes_test

import (
	"context"
	"fmt"
	"testing"

	"mdes"
)

func newCheckerEngine(t testing.TB, name mdes.BuiltinName, kind mdes.CheckerKind) *mdes.Engine {
	t.Helper()
	machine, err := mdes.Builtin(name)
	if err != nil {
		t.Fatal(err)
	}
	compiled := mdes.Compile(machine, mdes.FormAndOr)
	mdes.Optimize(compiled, mdes.LevelFull)
	eng, err := mdes.NewEngine(compiled, mdes.WithChecker(kind))
	if err != nil {
		t.Fatal(err)
	}
	return eng
}

// schedulesEqual fails the test unless got matches want block for block
// and op for op.
func schedulesEqual(t *testing.T, what string, got, want []*mdes.Result) {
	t.Helper()
	for bi, r := range got {
		if r.Length != want[bi].Length {
			t.Fatalf("%s block %d: length %d, reference %d", what, bi, r.Length, want[bi].Length)
		}
		for oi, c := range r.Issue {
			if c != want[bi].Issue[oi] {
				t.Fatalf("%s block %d op %d: cycle %d, reference %d", what, bi, oi, c, want[bi].Issue[oi])
			}
		}
	}
}

// checkerReferences schedules blocks serially on the two references every
// backend must reproduce: the unoptimized OR-form description — the flat
// tables the optimizer starts from, as the benchmark's reference does —
// and the §10 automaton, which shares no code with the reservation tables.
func checkerReferences(t *testing.T, name mdes.BuiltinName, blocks []*mdes.Block) map[string][]*mdes.Result {
	t.Helper()
	machine, err := mdes.Builtin(name)
	if err != nil {
		t.Fatal(err)
	}
	flat, err := mdes.NewEngine(mdes.Compile(machine, mdes.FormOR))
	if err != nil {
		t.Fatal(err)
	}
	refs := map[string][]*mdes.Result{}
	for ref, eng := range map[string]*mdes.Engine{
		"or/none":   flat,
		"automaton": newCheckerEngine(t, name, mdes.CheckerAutomaton),
	} {
		results, _, err := eng.ScheduleBlocks(context.Background(), blocks, 1)
		if err != nil {
			t.Fatalf("%s reference %s: %v", name, ref, err)
		}
		refs[ref] = results
	}
	return refs
}

// Every checker backend must produce byte-identical schedules (same
// per-op issue cycles, same lengths) on every built-in machine, equal to
// both references, and the same attempt/conflict counters as the flat
// OR-form tables. ResourceChecks legitimately differ — that counter
// measures backend and description work, which is the point of the
// ablation.
func TestCheckerBackendsEquivalent(t *testing.T) {
	for _, name := range []mdes.BuiltinName{mdes.PA7100, mdes.Pentium, mdes.SuperSPARC, mdes.K5} {
		blocks := testBlocks(t, name, 2000)
		refs := checkerReferences(t, name, blocks)
		var flatTotal mdes.Counters
		for _, r := range refs["or/none"] {
			flatTotal.Add(r.Counters)
		}

		for _, kind := range mdes.CheckerKinds() {
			eng := newCheckerEngine(t, name, kind)
			if eng.CheckerKind() != kind {
				t.Fatalf("%s: engine reports kind %s, want %s", name, eng.CheckerKind(), kind)
			}
			got, total, err := eng.ScheduleBlocks(context.Background(), blocks, 1)
			if err != nil {
				t.Fatalf("%s/%s: %v", name, kind, err)
			}
			if total.Attempts != flatTotal.Attempts || total.Conflicts != flatTotal.Conflicts {
				t.Fatalf("%s/%s: attempts=%d conflicts=%d, flat OR tables attempts=%d conflicts=%d",
					name, kind, total.Attempts, total.Conflicts,
					flatTotal.Attempts, flatTotal.Conflicts)
			}
			for ref, want := range refs {
				schedulesEqual(t, fmt.Sprintf("%s/%s vs %s", name, kind, ref), got, want)
			}
		}
	}
}

// The checkers must also be equivalent under concurrent scheduling: the
// automaton backend shares one memoized transition table across pooled
// contexts, the probe-plan backend shares one compiled plan with
// per-context probers and arenas, and racing builders must not perturb
// results. Every backend, on every built-in machine, must produce
// byte-identical schedules under a parallel fan-out.
func TestCheckerBackendsEquivalentParallel(t *testing.T) {
	for _, name := range []mdes.BuiltinName{mdes.PA7100, mdes.Pentium, mdes.SuperSPARC, mdes.K5} {
		blocks := testBlocks(t, name, 2000)
		refs := checkerReferences(t, name, blocks)

		for _, kind := range mdes.CheckerKinds() {
			eng := newCheckerEngine(t, name, kind)
			got, _, err := eng.ScheduleBlocks(context.Background(), blocks, 8)
			if err != nil {
				t.Fatalf("%s/%s: %v", name, kind, err)
			}
			for ref, want := range refs {
				schedulesEqual(t, fmt.Sprintf("%s/%s parallel vs %s", name, kind, ref), got, want)
			}
		}
	}
}

// The query layer runs on either backend: it clears the reservation
// table instead of releasing trial placements, so every Engine.Query
// answer on the automaton engine, and the attempts and conflicts behind
// it, equal the probe-plan engine's.
func TestQueryBackendsAgree(t *testing.T) {
	for _, name := range []mdes.BuiltinName{mdes.PA7100, mdes.Pentium, mdes.SuperSPARC, mdes.K5} {
		ppEng := newCheckerEngine(t, name, mdes.CheckerProbePlan)
		pp, au := ppEng.Query(), newCheckerEngine(t, name, mdes.CheckerAutomaton).Query()
		answers := func(q *mdes.Query, a, b string) string {
			together, err1 := q.CanIssueTogether(a, b, a)
			perCycle, err2 := q.MaxPerCycle(a, 8)
			dist, err3 := q.MinIssueDistance(a, b, 32)
			use, err4 := q.ResourceUse(a)
			return fmt.Sprint(together, perCycle, dist, use, err1, err2, err3, err4)
		}
		for _, x := range ppEng.Compiled().Operations {
			for _, y := range ppEng.Compiled().Operations {
				if got, want := answers(au, x.Name, y.Name), answers(pp, x.Name, y.Name); got != want {
					t.Fatalf("%s %s/%s: automaton %s, probe plan %s", name, x.Name, y.Name, got, want)
				}
			}
		}
		if got, want := au.IssueWidth(8), pp.IssueWidth(8); got != want {
			t.Fatalf("%s: IssueWidth automaton %d, probe plan %d", name, got, want)
		}
		ca, cp := au.Counters(), pp.Counters()
		if ca.Attempts != cp.Attempts || ca.Conflicts != cp.Conflicts {
			t.Fatalf("%s: automaton attempts=%d conflicts=%d, probe plan attempts=%d conflicts=%d",
				name, ca.Attempts, ca.Conflicts, cp.Attempts, cp.Conflicts)
		}
		au.Close()
		pp.Close()
	}
}

// BenchmarkChecker is the backend ablation: the same workload scheduled
// through each conflict-checker backend. The probe-plan case is the
// default engine's hot path; the automaton case trades table-build time
// for memoized O(1) probes.
func BenchmarkChecker(b *testing.B) {
	for _, name := range []mdes.BuiltinName{mdes.SuperSPARC, mdes.K5} {
		blocks := testBlocks(b, name, 2000)
		for _, kind := range mdes.CheckerKinds() {
			eng := newCheckerEngine(b, name, kind)
			b.Run(fmt.Sprintf("%s/%s", name, kind), func(b *testing.B) {
				var total mdes.Counters
				for i := 0; i < b.N; i++ {
					var err error
					_, total, err = eng.ScheduleBlocks(context.Background(), blocks, 1)
					if err != nil {
						b.Fatal(err)
					}
				}
				b.ReportMetric(float64(total.ResourceChecks)/float64(total.Attempts), "checks/attempt")
			})
		}
	}
}
