package mdes_test

import (
	"context"
	"fmt"
	"hash/fnv"
	"testing"

	"mdes"
)

// goldenRow pins the paper's counters (Tables 9-15) and a digest of every
// issue cycle for one machine × form × level, scheduled through a default
// NewEngine over the fixed-seed 2000-op workload of testBlocks.
type goldenRow struct {
	machine   mdes.BuiltinName
	form      mdes.Form
	level     mdes.Level
	attempts  int64
	options   int64
	checks    int64
	conflicts int64
	schedule  uint64
}

// goldenCounters was recorded with the pointer-walking RU map that the
// probe plan replaced (the plan re-lays out the same probe sequence); any
// checker or scheduler change must reproduce it exactly.
var goldenCounters = []goldenRow{
	{mdes.PA7100, mdes.FormOR, mdes.LevelNone, 4493, 7216, 13051, 2493, 0xe11b196793712026},
	{mdes.PA7100, mdes.FormOR, mdes.LevelFull, 4493, 6720, 6720, 2493, 0xe11b196793712026},
	{mdes.PA7100, mdes.FormAndOr, mdes.LevelNone, 4493, 7216, 13051, 2493, 0xe11b196793712026},
	{mdes.PA7100, mdes.FormAndOr, mdes.LevelFull, 4493, 6720, 6720, 2493, 0xe11b196793712026},
	{mdes.Pentium, mdes.FormOR, mdes.LevelNone, 3521, 4590, 11353, 1511, 0xbe04efd3857002c3},
	{mdes.Pentium, mdes.FormOR, mdes.LevelFull, 3521, 4590, 4590, 1511, 0xbe04efd3857002c3},
	{mdes.Pentium, mdes.FormAndOr, mdes.LevelNone, 3521, 4590, 11353, 1511, 0xbe04efd3857002c3},
	{mdes.Pentium, mdes.FormAndOr, mdes.LevelFull, 3521, 4590, 4590, 1511, 0xbe04efd3857002c3},
	{mdes.SuperSPARC, mdes.FormOR, mdes.LevelNone, 3577, 77075, 136438, 1571, 0x9478da1a93006794},
	{mdes.SuperSPARC, mdes.FormOR, mdes.LevelFull, 3577, 77075, 77075, 1571, 0x9478da1a93006794},
	{mdes.SuperSPARC, mdes.FormAndOr, mdes.LevelNone, 3577, 19956, 20514, 1571, 0x9478da1a93006794},
	{mdes.SuperSPARC, mdes.FormAndOr, mdes.LevelFull, 3577, 12773, 12773, 1571, 0x9478da1a93006794},
	{mdes.K5, mdes.FormOR, mdes.LevelNone, 2745, 46560, 80839, 741, 0x3b5139727e2e1327},
	{mdes.K5, mdes.FormOR, mdes.LevelFull, 2745, 46560, 46583, 741, 0x3b5139727e2e1327},
	{mdes.K5, mdes.FormAndOr, mdes.LevelNone, 2745, 16312, 16491, 741, 0x3b5139727e2e1327},
	{mdes.K5, mdes.FormAndOr, mdes.LevelFull, 2745, 11797, 11797, 741, 0x3b5139727e2e1327},
}

// scheduleDigest hashes every block's length and issue cycles.
func scheduleDigest(results []*mdes.Result) uint64 {
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

// TestGoldenCounters holds the paper's counters and every schedule in
// place across checker and scheduler refactors: each row must reproduce
// exactly through a default engine.
func TestGoldenCounters(t *testing.T) {
	blocks := map[mdes.BuiltinName][]*mdes.Block{}
	for _, row := range goldenCounters {
		if blocks[row.machine] == nil {
			blocks[row.machine] = testBlocks(t, row.machine, 2000)
		}
		machine, err := mdes.Builtin(row.machine)
		if err != nil {
			t.Fatal(err)
		}
		compiled := mdes.Compile(machine, row.form)
		mdes.Optimize(compiled, row.level)
		eng, err := mdes.NewEngine(compiled)
		if err != nil {
			t.Fatal(err)
		}
		results, total, err := eng.ScheduleBlocks(context.Background(), blocks[row.machine], 1)
		if err != nil {
			t.Fatal(err)
		}
		got := goldenRow{row.machine, row.form, row.level,
			total.Attempts, total.OptionsChecked, total.ResourceChecks, total.Conflicts, scheduleDigest(results)}
		if got != row {
			t.Errorf("%s form=%d level=%d:\n got  attempts=%d options=%d checks=%d conflicts=%d schedule=%#x\n want attempts=%d options=%d checks=%d conflicts=%d schedule=%#x",
				row.machine, row.form, row.level,
				got.attempts, got.options, got.checks, got.conflicts, got.schedule,
				row.attempts, row.options, row.checks, row.conflicts, row.schedule)
		}
	}
}
