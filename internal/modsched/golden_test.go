package modsched

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"testing"

	"mdes/internal/ir"
	"mdes/internal/lowlevel"
	"mdes/internal/machines"
	"mdes/internal/opt"
	"mdes/internal/workload"
)

// moduloGolden pins one machine × form × level of the modulo corpus: the
// search totals over every loop and a SHA-256 over each loop's II, issue
// cycles, counters, evictions and tried IIs, in corpus order.
type moduloGolden struct {
	machine    machines.Name
	form       lowlevel.Form
	level      opt.Level
	loops      int
	attempts   int64
	options    int64
	checks     int64
	conflicts  int64
	backtracks int64
	evictions  int
	triedIIs   int
	sha256     string
}

// moduloGoldens was recorded with the row-per-cycle modulo map that the
// former internal/check package carried before the folded probe plan
// replaced it; any change to the modulo scheduler or its reservation
// table must reproduce it exactly.
var moduloGoldens = []moduloGolden{
	{machines.PA7100, lowlevel.FormOR, opt.LevelNone, 414, 502912, 1060579, 1722279, 419034, 73899, 73899, 1976, "1e9b882652a668d3ed2a66ee7cf9ad23d5f08d1ddf8f0f957090b3d7ed0df0b8"},
	{machines.PA7100, lowlevel.FormOR, opt.LevelFull, 414, 502912, 922688, 922688, 419034, 73899, 73899, 1976, "c9efea396d9773d56913cc8a0f8f1abb795ba18e637fdd6c51dded41c0fcecae"},
	{machines.PA7100, lowlevel.FormAndOr, opt.LevelNone, 414, 502912, 1060579, 1722279, 419034, 73899, 73899, 1976, "1e9b882652a668d3ed2a66ee7cf9ad23d5f08d1ddf8f0f957090b3d7ed0df0b8"},
	{machines.PA7100, lowlevel.FormAndOr, opt.LevelFull, 414, 502912, 922688, 922688, 419034, 73899, 73899, 1976, "c9efea396d9773d56913cc8a0f8f1abb795ba18e637fdd6c51dded41c0fcecae"},
	{machines.Pentium, lowlevel.FormOR, opt.LevelNone, 268, 243236, 322143, 469326, 197502, 37926, 37926, 737, "6d7d74fb95a612301af1d8e1b7945cc852e8eac5c731e518f8d3d8e0f80253c3"},
	{machines.Pentium, lowlevel.FormOR, opt.LevelFull, 268, 243236, 322143, 322143, 197502, 37926, 37926, 737, "e3a2e2e4d9ee5e6f7537af5b33097fdae76cf1064c47dcb677972382f958bd10"},
	{machines.Pentium, lowlevel.FormAndOr, opt.LevelNone, 268, 243236, 322143, 469326, 197502, 37926, 37926, 737, "6d7d74fb95a612301af1d8e1b7945cc852e8eac5c731e518f8d3d8e0f80253c3"},
	{machines.Pentium, lowlevel.FormAndOr, opt.LevelFull, 268, 243236, 322143, 322143, 197502, 37926, 37926, 737, "e3a2e2e4d9ee5e6f7537af5b33097fdae76cf1064c47dcb677972382f958bd10"},
	{machines.SuperSPARC, lowlevel.FormOR, opt.LevelNone, 291, 290987, 8665200, 13494018, 220388, 61698, 61698, 1096, "32528f36eaf6d4969674b1c38ba30a4ba9c3f5a77204e265d1a4c8690c156326"},
	{machines.SuperSPARC, lowlevel.FormOR, opt.LevelFull, 291, 290987, 8665200, 8665200, 220388, 61698, 61698, 1096, "a677774285757dba5bee8d19df7d1aa923901c0fc736ae3dabf0b99376457faa"},
	{machines.SuperSPARC, lowlevel.FormAndOr, opt.LevelNone, 291, 220593, 1464903, 1493501, 172446, 40488, 40488, 836, "20dd3e03fbb16da7232248bae9aaef17c145a04804841abfc2efb1c95df94563"},
	{machines.SuperSPARC, lowlevel.FormAndOr, opt.LevelFull, 291, 220593, 585297, 585297, 172446, 40488, 40488, 836, "586e4c7248cca056326e687133975d91a5feef629f83ca25b130dd8e72b3de6f"},
	{machines.K5, lowlevel.FormOR, opt.LevelNone, 172, 212142, 5589555, 8344749, 159272, 45453, 45453, 624, "3e7a420d13f3a9bdbb6388f650b57c2aa4fc7cf65d6c702d476744d3fa65f464"},
	{machines.K5, lowlevel.FormOR, opt.LevelFull, 172, 212142, 5589555, 5592787, 159272, 45453, 45453, 624, "587a74c6d6ecb98569280f6e71c364ad0261123ee808e633158c04452beba512"},
	{machines.K5, lowlevel.FormAndOr, opt.LevelNone, 172, 180707, 1269469, 1271057, 138631, 35287, 35287, 525, "2f23969438f1b665ec1fa8e6967ba81d216dfbccfee51a0efebdcc566cf5f682"},
	{machines.K5, lowlevel.FormAndOr, opt.LevelFull, 172, 180707, 454877, 454877, 138631, 35287, 35287, 525, "020e92fc3cb5c0a7b54927d4a73daaaefb196d7113b1f07f2100ea89a9ef3386"},
}

// moduloCorpus builds the golden corpus for one machine from the
// fixed-seed 3000-op workload: for block b, a renumbered copy of its
// first 24 non-branch operations with one carried edge from the last
// operation to the first (MinDist 1, Omega 1 + b%2). Bodies of fewer than
// two operations are skipped.
func moduloCorpus(t *testing.T, name machines.Name) []*Loop {
	t.Helper()
	prog, err := workload.Generate(workload.Config{Machine: name, NumOps: 3000, Seed: 1996})
	if err != nil {
		t.Fatal(err)
	}
	var loops []*Loop
	for b, blk := range prog.Blocks {
		body := &ir.Block{}
		for _, o := range blk.Ops {
			if len(body.Ops) == 24 {
				break
			}
			if o.Branch {
				continue
			}
			c := *o
			c.ID = len(body.Ops)
			body.Ops = append(body.Ops, &c)
		}
		n := len(body.Ops)
		if n < 2 {
			continue
		}
		loops = append(loops, &Loop{Body: body, Carried: []Dep{{From: n - 1, To: 0, MinDist: 1, Omega: 1 + b%2}}})
	}
	return loops
}

// TestModuloGolden holds every modulo schedule, the search's counters,
// evictions and tried IIs in place across reservation-table refactors,
// for the paper's four machines in both forms, unoptimized and fully
// optimized. The optimizations preserve semantics, so each machine's
// (II, issue) pairs must also agree across its four configurations.
func TestModuloGolden(t *testing.T) {
	corpus := map[machines.Name][]*Loop{}
	ref := map[machines.Name][]string{}
	for _, g := range moduloGoldens {
		if corpus[g.machine] == nil {
			corpus[g.machine] = moduloCorpus(t, g.machine)
		}
		mach, err := machines.Load(g.machine)
		if err != nil {
			t.Fatal(err)
		}
		ll := lowlevel.Compile(mach, g.form)
		opt.Apply(ll, g.level, opt.Forward)
		s := New(ll)
		got := moduloGolden{machine: g.machine, form: g.form, level: g.level}
		h := sha256.New()
		var placements []string
		for li, l := range corpus[g.machine] {
			sched, err := s.Schedule(l)
			if err != nil {
				t.Fatalf("%s/%v/%v: loop %d: %v", g.machine, g.form, g.level, li, err)
			}
			c := sched.Counters
			fmt.Fprintf(h, "%d %v %d %d %d %d %d %d %d\n", sched.II, sched.Issue,
				c.Attempts, c.OptionsChecked, c.ResourceChecks, c.Conflicts, c.Backtracks,
				sched.Evictions, sched.TriedIIs)
			placements = append(placements, fmt.Sprint(sched.II, sched.Issue))
			got.loops++
			got.attempts += c.Attempts
			got.options += c.OptionsChecked
			got.checks += c.ResourceChecks
			got.conflicts += c.Conflicts
			got.backtracks += c.Backtracks
			got.evictions += sched.Evictions
			got.triedIIs += sched.TriedIIs
		}
		got.sha256 = hex.EncodeToString(h.Sum(nil))
		if got != g {
			t.Errorf("%s/%v/%v:\n got %#v\nwant %#v", g.machine, g.form, g.level, got, g)
		}
		if want, ok := ref[g.machine]; !ok {
			ref[g.machine] = placements
		} else {
			for li := range want {
				if placements[li] != want[li] {
					t.Errorf("%s/%v/%v: loop %d placed %s, first configuration %s",
						g.machine, g.form, g.level, li, placements[li], want[li])
				}
			}
		}
	}
}

// A Schedule allocates its Schedule, the Issue it returns and RecMII's
// scratch, however many candidate IIs it tries: tryII's per-operation
// state comes from the context's arena and the Scheduler's buffers, sized
// once per loop.
func TestScheduleAllocationsIndependentOfTriedIIs(t *testing.T) {
	mach, err := machines.Load(machines.K5)
	if err != nil {
		t.Fatal(err)
	}
	ll := lowlevel.Compile(mach, lowlevel.FormAndOr)
	opt.Apply(ll, opt.LevelFull, opt.Forward)
	s := New(ll)
	loops := moduloCorpus(t, machines.K5)
	tried := 0
	run := func() {
		tried = 0
		for _, l := range loops {
			sched, err := s.Schedule(l)
			if err != nil {
				t.Fatal(err)
			}
			tried += sched.TriedIIs
		}
	}
	run() // size the arena and the buffers for the largest loop
	perSchedule := testing.AllocsPerRun(10, run) / float64(len(loops))
	if perSchedule > 3 {
		t.Errorf("%.2f allocations per Schedule, want at most 3", perSchedule)
	}
	if tried < 2*len(loops) {
		t.Fatalf("the corpus tries %d IIs over %d loops; too few to show per-II allocation", tried, len(loops))
	}
}
