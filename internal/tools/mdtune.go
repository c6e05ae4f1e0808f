package tools

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"

	"mdes"
	"mdes/internal/cli"
	"mdes/internal/descache"
	"mdes/internal/experiments"
	"mdes/internal/machines"
	"mdes/internal/obs/profile"
	"mdes/internal/trace"
	"mdes/internal/verify"
)

// tuneConfig parameterizes the profile-guided tuning loop
// (`mdreport -tune`).
type tuneConfig struct {
	machine  string // machine to record for when no trace is given
	trace    string // existing mdtrace recording; "" = record one
	form     string
	level    string
	checker  string // override; "" = the recording's backend
	ops      int
	seed     int64
	shards   int
	workers  int
	out      string  // artifact directory; "" = don't persist
	minGain  float64 // reject below this percent probe-work reduction
	cacheDir string  // compiled-description cache; "" = don't publish the tuned arena
}

// runTune is the optimize-measure-iterate loop closing ROADMAP item 5:
//
//  1. record (or load) a replayable trace of a workload;
//  2. replay it with the conflict-attribution profiler attached,
//     asserting byte-identical schedules against the recording;
//  3. re-sort the description's OR-trees and usage checks by the observed
//     conflict frequencies (opt.ReorderFromProfile) on a fresh compile;
//  4. gate the tuned description: verify.CheckEquivalent (differential
//     stream + probe grid), a byte-identical trace replay, unchanged
//     Attempts/Conflicts/Backtracks, and an OptionsChecked+ResourceChecks
//     reduction of at least minGain percent;
//  5. on accept, persist the tuned layout (TUNED_*.mdar, the arena) and
//     the profile evidence (PROFILE_*.mdpf, content-addressed, keyed by
//     description fingerprint x workload).
//
// A tuned description that changes any scheduling decision, or that does
// not pay for itself, is rejected with a non-zero exit — never written.
func runTune(stdout io.Writer, cfg tuneConfig) error {
	ctx := context.Background()

	// 1. The recording is the workload's ground truth.
	var rec *trace.Recording
	if cfg.trace != "" {
		var err error
		if rec, err = mdtraceReadFile(cfg.trace); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "loaded trace %s: %d blocks (%s, %s/%s, checker=%s)\n",
			cfg.trace, len(rec.Outcomes), rec.Meta.Machine, rec.Meta.Form, rec.Meta.Level, rec.Meta.Checker)
	} else {
		if cfg.checker == "" {
			cfg.checker = "probeplan"
		}
		eng, meta, err := mdtraceEngine(cfg.machine, cfg.form, cfg.level, cfg.checker)
		if err != nil {
			return err
		}
		wl := trace.Workload{Seeded: true, NumOps: cfg.ops, Seed: cfg.seed, Shards: cfg.shards}
		if rec, err = trace.Capture(ctx, eng, meta, wl, cfg.workers); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "recorded %d blocks (%s, %s/%s, checker=%s, ops=%d seed=%d)\n",
			len(rec.Outcomes), meta.Machine, meta.Form, meta.Level, meta.Checker, cfg.ops, cfg.seed)
	}
	checker := rec.Meta.Checker
	if cfg.checker != "" && cfg.trace != "" {
		checker = cfg.checker
	}

	// 2. Profiled baseline replay: byte-identical schedules, observed
	// conflict frequencies.
	baseCompiled, baseMeta, err := mdtraceCompile(rec.Meta.Machine, rec.Meta.Form, rec.Meta.Level)
	if err != nil {
		return err
	}
	if err := rec.CheckHash(baseMeta.MachineHash); err != nil {
		return fmt.Errorf("mdreport -tune: %w", err)
	}
	kind, err := mdes.ParseCheckerKind(checker)
	if err != nil {
		return err
	}
	prof := mdes.NewConflictProfile(baseCompiled)
	baseEng, err := mdes.NewEngine(baseCompiled, mdes.WithChecker(kind), mdes.WithProfile(prof))
	if err != nil {
		return err
	}
	baseStart := time.Now()
	baseRep, baseTotals, err := trace.ReplaySchedules(ctx, baseEng, rec, cfg.workers)
	baseElapsed := time.Since(baseStart)
	if err != nil {
		return err
	}
	if err := reportMismatches(stdout, baseRep, "baseline replay", rec); err != nil {
		return err
	}
	prof.SetWorkload(workloadKey(rec))
	snap := prof.Snapshot()
	fmt.Fprintf(stdout, "profiled baseline: %d blocks byte-identical in %s (%.0f blocks/s), %s\n",
		baseRep.Blocks, baseElapsed.Round(time.Microsecond),
		float64(baseRep.Blocks)/baseElapsed.Seconds(), baseTotals)

	// 3. Profile-guided reorder on a fresh (unfrozen) compile.
	tuned, _, err := mdtraceCompile(rec.Meta.Machine, rec.Meta.Form, rec.Meta.Level)
	if err != nil {
		return err
	}
	passRep := mdes.ReorderFromProfile(tuned, &snap)
	fmt.Fprintf(stdout, "%s\n", passRep.String())

	// 4a. Differential equivalence gate (stream + exhaustive probe grid).
	baseFresh, _, err := mdtraceCompile(rec.Meta.Machine, rec.Meta.Form, rec.Meta.Level)
	if err != nil {
		return err
	}
	equivSeed := cfg.seed
	if rec.Workload.Seeded {
		equivSeed = rec.Workload.Seed
	}
	if err := verify.CheckEquivalent(baseFresh, tuned, equivSeed); err != nil {
		return fmt.Errorf("mdreport -tune: REJECTED (equivalence): %w", err)
	}

	// 4b. Byte-identical replay of the recording on the tuned layout.
	tunedEng, err := mdes.NewEngine(tuned, mdes.WithChecker(kind))
	if err != nil {
		return err
	}
	tunedStart := time.Now()
	tunedRep, tunedTotals, err := trace.ReplaySchedules(ctx, tunedEng, rec, cfg.workers)
	tunedElapsed := time.Since(tunedStart)
	if err != nil {
		return err
	}
	if err := reportMismatches(stdout, tunedRep, "REJECTED: tuned replay", rec); err != nil {
		return err
	}

	// 4c. A layout pass may only change scan order: the decision counters
	// must be untouched, the probe-work counters must pay for the pass.
	if tunedTotals.Attempts != baseTotals.Attempts ||
		tunedTotals.Conflicts != baseTotals.Conflicts ||
		tunedTotals.Backtracks != baseTotals.Backtracks {
		return fmt.Errorf("mdreport -tune: REJECTED: decision counters diverged: base %s, tuned %s",
			baseTotals, tunedTotals)
	}
	baseWork := baseTotals.OptionsChecked + baseTotals.ResourceChecks
	tunedWork := tunedTotals.OptionsChecked + tunedTotals.ResourceChecks
	if baseWork == 0 {
		return fmt.Errorf("mdreport -tune: baseline did no probe work; nothing to tune")
	}
	gain := 100 * float64(baseWork-tunedWork) / float64(baseWork)
	fmt.Fprintf(stdout, "tuned replay:      %d blocks byte-identical in %s (%.0f blocks/s, unprofiled), %s\n",
		tunedRep.Blocks, tunedElapsed.Round(time.Microsecond),
		float64(tunedRep.Blocks)/tunedElapsed.Seconds(), tunedTotals)
	fmt.Fprintf(stdout, "probe work: options %d -> %d (%+.1f%%), resource checks %d -> %d (%+.1f%%), combined %+.1f%%\n",
		baseTotals.OptionsChecked, tunedTotals.OptionsChecked,
		pctDelta(baseTotals.OptionsChecked, tunedTotals.OptionsChecked),
		baseTotals.ResourceChecks, tunedTotals.ResourceChecks,
		pctDelta(baseTotals.ResourceChecks, tunedTotals.ResourceChecks),
		-gain)
	if gain < cfg.minGain {
		return fmt.Errorf("mdreport -tune: REJECTED: probe-work reduction %.1f%% below required %.1f%%", gain, cfg.minGain)
	}

	// 5. Accepted: persist the tuned layout and its profile evidence.
	profData, profAddr, err := profile.Encode(&snap)
	if err != nil {
		return err
	}
	if cfg.out != "" {
		if err := os.MkdirAll(cfg.out, 0o777); err != nil {
			return err
		}
		// tuned froze in NewEngine, so encoding it memoizes its fingerprint.
		arena, err := mdes.EncodeArena(tuned)
		if err != nil {
			return err
		}
		tunedFP, err := tuned.Fingerprint()
		if err != nil {
			return err
		}
		tunedPath := filepath.Join(cfg.out, fmt.Sprintf("TUNED_%s_%s.mdar", rec.Meta.Machine, tunedFP))
		if err := os.WriteFile(tunedPath, arena, 0o666); err != nil {
			return err
		}
		profPath := filepath.Join(cfg.out, fmt.Sprintf("PROFILE_%s_%s.mdpf", rec.Meta.Machine, baseMeta.MachineHash))
		if err := os.WriteFile(profPath, profData, 0o666); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "wrote %s (tuned layout, fingerprint %s)\n", tunedPath, tunedFP)
		fmt.Fprintf(stdout, "wrote %s (profile artifact %s)\n", profPath, profAddr)
	}
	if cfg.cacheDir != "" {
		path, err := publishTuned(cfg.cacheDir, rec.Meta.Machine, rec.Meta.Form, rec.Meta.Level,
			baseMeta.MachineHash, profAddr, tuned)
		if err != nil {
			return fmt.Errorf("mdreport -tune: cache publish: %w", err)
		}
		fmt.Fprintf(stdout, "published %s (tuned arena; LoadCached(WithTuned) now prefers it)\n", path)
	}
	fmt.Fprintf(stdout, "ACCEPTED: schedules byte-identical, probe work reduced %.1f%%\n", gain)
	return nil
}

// publishTuned stores an accepted tuned layout in the compiled-description
// cache under the tuned slot of the base description's key — the same key
// LoadCached derives, so a scheduler opting in with WithTuned picks the
// layout up on its next cold start. The slot is addressed by the base
// description's fingerprint × the driving profile's content address,
// making the evidence chain auditable from the cache listing alone.
func publishTuned(cacheDir, machineName, formName, levelName, baseFP, profAddr string, tuned *mdes.Compiled) (string, error) {
	source, err := machines.Source(machines.Name(machineName))
	if err != nil {
		return "", err
	}
	form, err := cli.ParseForm(formName)
	if err != nil {
		return "", err
	}
	key := descache.Key{
		SourceHash: descache.HashSource(source),
		Level:      levelName,
		Form:       "andor",
	}
	if form == mdes.FormOR {
		key.Form = "or"
	}
	arena, err := tuned.EncodeArena()
	if err != nil {
		return "", err
	}
	store, err := descache.Open(cacheDir, 0)
	if err != nil {
		return "", err
	}
	return store.PutTuned(key, baseFP, profAddr, arena)
}

// workloadKey names the workload a profile was measured on — the other
// half of the (description fingerprint x workload) artifact key.
func workloadKey(rec *trace.Recording) string {
	if rec.Workload.Seeded {
		return fmt.Sprintf("seeded ops=%d seed=%d shards=%d",
			rec.Workload.NumOps, rec.Workload.Seed, rec.Workload.Shards)
	}
	return fmt.Sprintf("inline blocks=%d trace=%s", len(rec.Workload.Blocks), rec.ID)
}

func reportMismatches(stdout io.Writer, rep *trace.ReplayReport, what string, rec *trace.Recording) error {
	if rep.Identical() {
		return nil
	}
	for i, m := range rep.Mismatches {
		if i >= 10 {
			fmt.Fprintf(stdout, "... and %d more mismatches\n", len(rep.Mismatches)-i)
			break
		}
		fmt.Fprintf(stdout, "block %d: %s\n", m.Block, m.What)
	}
	return fmt.Errorf("mdreport -tune: %s: %d of %d blocks diverged from trace %s",
		what, len(rep.Mismatches), rep.Blocks, rec.ID)
}

func pctDelta(base, new int64) float64 {
	if base == 0 {
		return 0
	}
	return 100 * float64(new-base) / float64(base)
}

// runBenchCompare is `mdreport -bench-compare <old> <new>`: gate the new
// BENCH_*.json trajectory (file or directory) against either a committed
// bench_budgets.json baseline or an older trajectory. Non-zero exit on
// any regression, so CI compares instead of only uploading artifacts.
func runBenchCompare(stdout io.Writer, oldPath, newPath string, rateTol, checksTol float64) error {
	newRecs, err := experiments.LoadBenchRecords(newPath)
	if err != nil {
		return err
	}
	if experiments.IsBenchBudgetsFile(oldPath) {
		budgets, err := experiments.LoadBenchBudgets(oldPath)
		if err != nil {
			return err
		}
		for _, r := range newRecs {
			b := budgets.Budgets[r.Key()]
			fmt.Fprintf(stdout, "%-24s %9.0f blocks/s (floor %8.0f)  %6.3f checks/attempt (budget %6.3f)\n",
				r.Key(), r.BlocksPerSec, b.MinBlocksPerSec, r.ChecksPerAttempt, b.MaxChecksPerAttempt)
		}
		if violations := experiments.CheckBenchBudgets(budgets, newRecs); len(violations) > 0 {
			for _, v := range violations {
				fmt.Fprintf(stdout, "BENCH REGRESSION: %s\n", v)
			}
			return fmt.Errorf("%d bench regression(s) against %s", len(violations), oldPath)
		}
		fmt.Fprintf(stdout, "all %d benchmark(s) within %s budgets\n", len(newRecs), oldPath)
		return nil
	}
	oldRecs, err := experiments.LoadBenchRecords(oldPath)
	if err != nil {
		return err
	}
	deltas, violations := experiments.CompareBenchRecords(oldRecs, newRecs, rateTol, checksTol)
	for _, d := range deltas {
		fmt.Fprintf(stdout, "%-24s %9.0f -> %9.0f blocks/s (%+.1f%%)  %6.3f -> %6.3f checks/attempt\n",
			d.Key, d.OldBlocksPerSec, d.NewBlocksPerSec, d.RatePct(),
			d.OldChecksPerAttempt, d.NewChecksPerAttempt)
	}
	if len(violations) > 0 {
		for _, v := range violations {
			fmt.Fprintf(stdout, "BENCH REGRESSION: %s\n", v)
		}
		return fmt.Errorf("%d bench regression(s): %s vs %s", len(violations), newPath, oldPath)
	}
	fmt.Fprintf(stdout, "%d benchmark(s) within tolerance (blocks/s -%.0f%%, checks/attempt +%.0f%%)\n",
		len(deltas), 100*rateTol, 100*checksTol)
	return nil
}

// runSeedBenchBudgets derives a committed bench_budgets.json baseline
// from a measured BENCH trajectory.
func runSeedBenchBudgets(stdout io.Writer, recordsPath, outPath string, rateHeadroom, checksHeadroom float64) error {
	recs, err := experiments.LoadBenchRecords(recordsPath)
	if err != nil {
		return err
	}
	f := experiments.SeedBenchBudgets(recs, rateHeadroom, checksHeadroom)
	data, err := marshalIndentJSON(f)
	if err != nil {
		return err
	}
	if err := os.WriteFile(outPath, data, 0o666); err != nil {
		return err
	}
	fmt.Fprintf(stdout, "seeded %s (%d benchmarks, %.0f%% rate headroom, %.0f%% checks headroom)\n",
		outPath, len(f.Budgets), 100*rateHeadroom, 100*checksHeadroom)
	return nil
}

func marshalIndentJSON(v any) ([]byte, error) {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(data, '\n'), nil
}
