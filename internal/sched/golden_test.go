package sched

import (
	"fmt"
	"hash/fnv"
	"testing"

	"mdes/internal/ir"
	"mdes/internal/lowlevel"
	"mdes/internal/machines"
	"mdes/internal/opt"
	"mdes/internal/workload"
)

// schedGolden pins one scheduler × machine × form × level × shift
// direction over the fixed-seed 2000-op workload: the block totals of the
// paper's counters and an FNV-64a digest of every block's length and
// issue cycles, in block order.
type schedGolden struct {
	scheduler string
	machine   machines.Name
	form      lowlevel.Form
	level     opt.Level
	dir       opt.Direction
	attempts  int64
	options   int64
	checks    int64
	conflicts int64
	schedule  uint64
}

// schedulers maps each golden scheduler name to its entry point.
var schedulers = map[string]func(*Scheduler, *ir.Block) (*Result, error){
	"list":     (*Scheduler).ScheduleBlock,
	"backward": (*Scheduler).ScheduleBlockBackward,
	"opdriven": (*Scheduler).ScheduleBlockOpDriven,
}

// schedGoldens was recorded with the three schedulers' separate
// per-block setups; any change to a scheduler, its graph builder, its
// priority or its horizon must reproduce it exactly. The forward rows
// under LevelFull repeat TestGoldenCounters' list figures.
var schedGoldens = []schedGolden{
	{"list", machines.PA7100, lowlevel.FormOR, opt.LevelNone, opt.Forward, 4493, 7216, 13051, 2493, 0xe11b196793712026},
	{"list", machines.PA7100, lowlevel.FormOR, opt.LevelFull, opt.Forward, 4493, 6720, 6720, 2493, 0xe11b196793712026},
	{"list", machines.PA7100, lowlevel.FormOR, opt.LevelFull, opt.Backward, 4493, 6720, 6720, 2493, 0xe11b196793712026},
	{"list", machines.PA7100, lowlevel.FormAndOr, opt.LevelNone, opt.Forward, 4493, 7216, 13051, 2493, 0xe11b196793712026},
	{"list", machines.PA7100, lowlevel.FormAndOr, opt.LevelFull, opt.Forward, 4493, 6720, 6720, 2493, 0xe11b196793712026},
	{"list", machines.PA7100, lowlevel.FormAndOr, opt.LevelFull, opt.Backward, 4493, 6720, 6720, 2493, 0xe11b196793712026},
	{"list", machines.Pentium, lowlevel.FormOR, opt.LevelNone, opt.Forward, 3521, 4590, 11353, 1511, 0xbe04efd3857002c3},
	{"list", machines.Pentium, lowlevel.FormOR, opt.LevelFull, opt.Forward, 3521, 4590, 4590, 1511, 0xbe04efd3857002c3},
	{"list", machines.Pentium, lowlevel.FormOR, opt.LevelFull, opt.Backward, 3521, 4590, 4590, 1511, 0xbe04efd3857002c3},
	{"list", machines.Pentium, lowlevel.FormAndOr, opt.LevelNone, opt.Forward, 3521, 4590, 11353, 1511, 0xbe04efd3857002c3},
	{"list", machines.Pentium, lowlevel.FormAndOr, opt.LevelFull, opt.Forward, 3521, 4590, 4590, 1511, 0xbe04efd3857002c3},
	{"list", machines.Pentium, lowlevel.FormAndOr, opt.LevelFull, opt.Backward, 3521, 4590, 4590, 1511, 0xbe04efd3857002c3},
	{"list", machines.SuperSPARC, lowlevel.FormOR, opt.LevelNone, opt.Forward, 3577, 77075, 136438, 1571, 0x9478da1a93006794},
	{"list", machines.SuperSPARC, lowlevel.FormOR, opt.LevelFull, opt.Forward, 3577, 77075, 77075, 1571, 0x9478da1a93006794},
	{"list", machines.SuperSPARC, lowlevel.FormOR, opt.LevelFull, opt.Backward, 3577, 77075, 77075, 1571, 0x9478da1a93006794},
	{"list", machines.SuperSPARC, lowlevel.FormAndOr, opt.LevelNone, opt.Forward, 3577, 19956, 20514, 1571, 0x9478da1a93006794},
	{"list", machines.SuperSPARC, lowlevel.FormAndOr, opt.LevelFull, opt.Forward, 3577, 12773, 12773, 1571, 0x9478da1a93006794},
	{"list", machines.SuperSPARC, lowlevel.FormAndOr, opt.LevelFull, opt.Backward, 3577, 12773, 12773, 1571, 0x9478da1a93006794},
	{"list", machines.K5, lowlevel.FormOR, opt.LevelNone, opt.Forward, 2745, 46560, 80839, 741, 0x3b5139727e2e1327},
	{"list", machines.K5, lowlevel.FormOR, opt.LevelFull, opt.Forward, 2745, 46560, 46583, 741, 0x3b5139727e2e1327},
	{"list", machines.K5, lowlevel.FormOR, opt.LevelFull, opt.Backward, 2745, 46560, 53119, 741, 0x3b5139727e2e1327},
	{"list", machines.K5, lowlevel.FormAndOr, opt.LevelNone, opt.Forward, 2745, 16312, 16491, 741, 0x3b5139727e2e1327},
	{"list", machines.K5, lowlevel.FormAndOr, opt.LevelFull, opt.Forward, 2745, 11797, 11797, 741, 0x3b5139727e2e1327},
	{"list", machines.K5, lowlevel.FormAndOr, opt.LevelFull, opt.Backward, 2745, 14113, 14113, 741, 0x3b5139727e2e1327},
	{"backward", machines.PA7100, lowlevel.FormOR, opt.LevelNone, opt.Forward, 4862, 8488, 14735, 2862, 0x6c56510d3a81739c},
	{"backward", machines.PA7100, lowlevel.FormOR, opt.LevelFull, opt.Forward, 4862, 7739, 7739, 2862, 0x6c56510d3a81739c},
	{"backward", machines.PA7100, lowlevel.FormOR, opt.LevelFull, opt.Backward, 4862, 7739, 7739, 2862, 0x6c56510d3a81739c},
	{"backward", machines.PA7100, lowlevel.FormAndOr, opt.LevelNone, opt.Forward, 4862, 8488, 14735, 2862, 0x6c56510d3a81739c},
	{"backward", machines.PA7100, lowlevel.FormAndOr, opt.LevelFull, opt.Forward, 4862, 7739, 7739, 2862, 0x6c56510d3a81739c},
	{"backward", machines.PA7100, lowlevel.FormAndOr, opt.LevelFull, opt.Backward, 4862, 7739, 7739, 2862, 0x6c56510d3a81739c},
	{"backward", machines.Pentium, lowlevel.FormOR, opt.LevelNone, opt.Forward, 3599, 4657, 11414, 1589, 0xf49c864ad3857593},
	{"backward", machines.Pentium, lowlevel.FormOR, opt.LevelFull, opt.Forward, 3599, 4657, 4657, 1589, 0xf49c864ad3857593},
	{"backward", machines.Pentium, lowlevel.FormOR, opt.LevelFull, opt.Backward, 3599, 4657, 4657, 1589, 0xf49c864ad3857593},
	{"backward", machines.Pentium, lowlevel.FormAndOr, opt.LevelNone, opt.Forward, 3599, 4657, 11414, 1589, 0xf49c864ad3857593},
	{"backward", machines.Pentium, lowlevel.FormAndOr, opt.LevelFull, opt.Forward, 3599, 4657, 4657, 1589, 0xf49c864ad3857593},
	{"backward", machines.Pentium, lowlevel.FormAndOr, opt.LevelFull, opt.Backward, 3599, 4657, 4657, 1589, 0xf49c864ad3857593},
	{"backward", machines.SuperSPARC, lowlevel.FormOR, opt.LevelNone, opt.Forward, 3626, 77939, 128332, 1620, 0xd14dbcced25f671a},
	{"backward", machines.SuperSPARC, lowlevel.FormOR, opt.LevelFull, opt.Forward, 3626, 77939, 77939, 1620, 0xd14dbcced25f671a},
	{"backward", machines.SuperSPARC, lowlevel.FormOR, opt.LevelFull, opt.Backward, 3626, 77939, 77939, 1620, 0xd14dbcced25f671a},
	{"backward", machines.SuperSPARC, lowlevel.FormAndOr, opt.LevelNone, opt.Forward, 3626, 18743, 19297, 1620, 0xd14dbcced25f671a},
	{"backward", machines.SuperSPARC, lowlevel.FormAndOr, opt.LevelFull, opt.Forward, 3626, 12983, 12983, 1620, 0xd14dbcced25f671a},
	{"backward", machines.SuperSPARC, lowlevel.FormAndOr, opt.LevelFull, opt.Backward, 3626, 12983, 12983, 1620, 0xd14dbcced25f671a},
	{"backward", machines.K5, lowlevel.FormOR, opt.LevelNone, opt.Forward, 2909, 50895, 89117, 905, 0x33ad4507257ae89b},
	{"backward", machines.K5, lowlevel.FormOR, opt.LevelFull, opt.Forward, 2909, 50895, 51418, 905, 0x33ad4507257ae89b},
	{"backward", machines.K5, lowlevel.FormOR, opt.LevelFull, opt.Backward, 2909, 50895, 57920, 905, 0x33ad4507257ae89b},
	{"backward", machines.K5, lowlevel.FormAndOr, opt.LevelNone, opt.Forward, 2909, 17462, 17623, 905, 0x33ad4507257ae89b},
	{"backward", machines.K5, lowlevel.FormAndOr, opt.LevelFull, opt.Forward, 2909, 12354, 12354, 905, 0x33ad4507257ae89b},
	{"backward", machines.K5, lowlevel.FormAndOr, opt.LevelFull, opt.Backward, 2909, 14680, 14680, 905, 0x33ad4507257ae89b},
	{"opdriven", machines.PA7100, lowlevel.FormOR, opt.LevelNone, opt.Forward, 4493, 7216, 13051, 2493, 0xe11b196793712026},
	{"opdriven", machines.PA7100, lowlevel.FormOR, opt.LevelFull, opt.Forward, 4493, 6720, 6720, 2493, 0xe11b196793712026},
	{"opdriven", machines.PA7100, lowlevel.FormOR, opt.LevelFull, opt.Backward, 4493, 6720, 6720, 2493, 0xe11b196793712026},
	{"opdriven", machines.PA7100, lowlevel.FormAndOr, opt.LevelNone, opt.Forward, 4493, 7216, 13051, 2493, 0xe11b196793712026},
	{"opdriven", machines.PA7100, lowlevel.FormAndOr, opt.LevelFull, opt.Forward, 4493, 6720, 6720, 2493, 0xe11b196793712026},
	{"opdriven", machines.PA7100, lowlevel.FormAndOr, opt.LevelFull, opt.Backward, 4493, 6720, 6720, 2493, 0xe11b196793712026},
	{"opdriven", machines.Pentium, lowlevel.FormOR, opt.LevelNone, opt.Forward, 3521, 4590, 11353, 1511, 0xbe04efd3857002c3},
	{"opdriven", machines.Pentium, lowlevel.FormOR, opt.LevelFull, opt.Forward, 3521, 4590, 4590, 1511, 0xbe04efd3857002c3},
	{"opdriven", machines.Pentium, lowlevel.FormOR, opt.LevelFull, opt.Backward, 3521, 4590, 4590, 1511, 0xbe04efd3857002c3},
	{"opdriven", machines.Pentium, lowlevel.FormAndOr, opt.LevelNone, opt.Forward, 3521, 4590, 11353, 1511, 0xbe04efd3857002c3},
	{"opdriven", machines.Pentium, lowlevel.FormAndOr, opt.LevelFull, opt.Forward, 3521, 4590, 4590, 1511, 0xbe04efd3857002c3},
	{"opdriven", machines.Pentium, lowlevel.FormAndOr, opt.LevelFull, opt.Backward, 3521, 4590, 4590, 1511, 0xbe04efd3857002c3},
	{"opdriven", machines.SuperSPARC, lowlevel.FormOR, opt.LevelNone, opt.Forward, 3577, 77075, 136438, 1571, 0x9478da1a93006794},
	{"opdriven", machines.SuperSPARC, lowlevel.FormOR, opt.LevelFull, opt.Forward, 3577, 77075, 77075, 1571, 0x9478da1a93006794},
	{"opdriven", machines.SuperSPARC, lowlevel.FormOR, opt.LevelFull, opt.Backward, 3577, 77075, 77075, 1571, 0x9478da1a93006794},
	{"opdriven", machines.SuperSPARC, lowlevel.FormAndOr, opt.LevelNone, opt.Forward, 3577, 19956, 20514, 1571, 0x9478da1a93006794},
	{"opdriven", machines.SuperSPARC, lowlevel.FormAndOr, opt.LevelFull, opt.Forward, 3577, 12773, 12773, 1571, 0x9478da1a93006794},
	{"opdriven", machines.SuperSPARC, lowlevel.FormAndOr, opt.LevelFull, opt.Backward, 3577, 12773, 12773, 1571, 0x9478da1a93006794},
	{"opdriven", machines.K5, lowlevel.FormOR, opt.LevelNone, opt.Forward, 2745, 46592, 80950, 741, 0x3b5139727e2e1327},
	{"opdriven", machines.K5, lowlevel.FormOR, opt.LevelFull, opt.Forward, 2745, 46592, 46642, 741, 0x3b5139727e2e1327},
	{"opdriven", machines.K5, lowlevel.FormOR, opt.LevelFull, opt.Backward, 2745, 46592, 53140, 741, 0x3b5139727e2e1327},
	{"opdriven", machines.K5, lowlevel.FormAndOr, opt.LevelNone, opt.Forward, 2745, 16313, 16492, 741, 0x3b5139727e2e1327},
	{"opdriven", machines.K5, lowlevel.FormAndOr, opt.LevelFull, opt.Forward, 2745, 11797, 11797, 741, 0x3b5139727e2e1327},
	{"opdriven", machines.K5, lowlevel.FormAndOr, opt.LevelFull, opt.Backward, 2745, 14113, 14113, 741, 0x3b5139727e2e1327},
}

// schedDigest hashes every block's length and issue cycles.
func schedDigest(results []*Result) uint64 {
	h := fnv.New64a()
	for _, r := range results {
		fmt.Fprintf(h, "%d:", r.Length)
		for _, c := range r.Issue {
			fmt.Fprintf(h, "%d,", c)
		}
		h.Write([]byte{'\n'})
	}
	return h.Sum64()
}

// TestSchedulerGolden holds the list, backward and operation-driven
// schedules and counters in place across scheduler refactors, for the
// paper's four machines in both forms, unoptimized and fully optimized
// under both usage-time shift directions.
func TestSchedulerGolden(t *testing.T) {
	blocks := map[machines.Name][]*ir.Block{}
	for _, g := range schedGoldens {
		if blocks[g.machine] == nil {
			prog, err := workload.Generate(workload.Config{Machine: g.machine, NumOps: 2000, Seed: 1996})
			if err != nil {
				t.Fatal(err)
			}
			blocks[g.machine] = prog.Blocks
		}
		mach, err := machines.Load(g.machine)
		if err != nil {
			t.Fatal(err)
		}
		ll := lowlevel.Compile(mach, g.form)
		opt.Apply(ll, g.level, g.dir)
		s := New(ll)
		s.SelfCheck = true
		run := schedulers[g.scheduler]
		got := schedGolden{scheduler: g.scheduler, machine: g.machine, form: g.form, level: g.level, dir: g.dir}
		results := make([]*Result, 0, len(blocks[g.machine]))
		for bi, b := range blocks[g.machine] {
			r, err := run(s, b)
			if err != nil {
				t.Fatalf("%s %s/%v/%v/%v: block %d: %v", g.scheduler, g.machine, g.form, g.level, g.dir, bi, err)
			}
			got.attempts += r.Counters.Attempts
			got.options += r.Counters.OptionsChecked
			got.checks += r.Counters.ResourceChecks
			got.conflicts += r.Counters.Conflicts
			results = append(results, r)
		}
		got.schedule = schedDigest(results)
		if got != g {
			t.Errorf("%s %s/%v/%v/%v:\n got {%q, %q, %d, %d, %d, %d, %d, %d, %d, %#x}",
				g.scheduler, g.machine, g.form, g.level, g.dir,
				got.scheduler, got.machine, got.form, got.level, got.dir,
				got.attempts, got.options, got.checks, got.conflicts, got.schedule)
		}
	}
}
