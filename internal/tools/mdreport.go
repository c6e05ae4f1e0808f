package tools

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"mdes/internal/cli"
	"mdes/internal/experiments"
	"mdes/internal/hmdes"
	"mdes/internal/machines"
)

// RunMDReport is the mdreport tool: render the translator's pass ledger
// and the paper's per-machine tables (5, 7-12) for any machine, emit the
// report as JSON, and gate optimized size and check counts against
// checked-in budgets (the CI size-regression job).
func RunMDReport(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("mdreport", flag.ContinueOnError)
	fs.SetOutput(stdout)

	var (
		machineFlag = fs.String("m", "", "built-in machine name (default: all builtin machines)")
		inFlag      = fs.String("in", "", "path to a high-level MDES source file")
		jsonFlag    = fs.Bool("json", false, "emit the reports as JSON instead of tables")
		outFlag     = fs.String("out", "", "directory to write one <machine>.json report per machine (CI artifacts)")
		checkFlag   = fs.String("check", "", "budgets.json to check reports against; exits nonzero on any regression")
		seedBudgets = fs.String("seed-budgets", "", "write a budgets.json derived from the measured reports")
		headroom    = fs.Float64("headroom", 0.05, "fractional headroom for -seed-budgets (0.05 = 5%)")
		opsFlag     = fs.Int("ops", 20000, "workload size for the scheduling tables (builtin machines)")
		seedFlag    = fs.Int64("seed", 1996, "workload seed")

		tuneFlag    = fs.Bool("tune", false, "profile-guided tuning loop: record/replay a trace, reorder checks from the observed conflict profile, accept only byte-identical schedules with fewer checks")
		traceFlag   = fs.String("trace", "", "with -tune: tune against this mdtrace recording instead of recording one")
		formFlag    = fs.String("form", "andor", "with -tune: representation form when recording (or | andor)")
		levelFlag   = fs.String("level", "full", "with -tune: optimization level when recording (none | redundancy | bit-vector | time-shift | full)")
		checkerFlag = fs.String("checker", "", "with -tune: conflict-checker backend (default probeplan, or the recording's with -trace)")
		shardsFlag  = fs.Int("shards", 4, "with -tune: workload generator shards when recording")
		workersFlag = fs.Int("workers", 8, "with -tune: scheduling goroutines")
		tuneOut     = fs.String("tune-out", "", "with -tune: directory for TUNED_*.mdar and PROFILE_*.mdpf artifacts")
		tuneMinGain = fs.Float64("tune-min-gain", 0, "with -tune: reject unless OptionsChecked+ResourceChecks drop at least this many percent")
		tuneCache   = fs.String("cache-dir", "", "with -tune: publish the accepted tuned layout as an arena into this compiled-description cache (LoadCached WithTuned slot)")

		benchCompare   = fs.Bool("bench-compare", false, "compare BENCH trajectories: args are <old> <new>, old a bench_budgets.json or BENCH file/dir, new a BENCH file/dir; non-zero exit on regression")
		benchTol       = fs.Float64("bench-tol", 0.40, "with -bench-compare: fractional blocks/s regression tolerance against an old trajectory (wall clock is noisy)")
		benchChecksTol = fs.Float64("bench-checks-tol", 0.02, "with -bench-compare: fractional checks/attempt tolerance (the counter is deterministic)")
		seedBenchOut   = fs.String("seed-bench-budgets", "", "write a bench_budgets.json derived from a BENCH file/dir (first arg) to this path")
		benchHeadroom  = fs.Float64("bench-headroom", 0.60, "with -seed-bench-budgets: fractional blocks/s headroom (CI runners are slower than the seeding machine)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	if *tuneFlag {
		machine := *machineFlag
		if machine == "" {
			machine = string(machines.K5)
		}
		return runTune(stdout, tuneConfig{
			machine:  machine,
			trace:    *traceFlag,
			form:     *formFlag,
			level:    *levelFlag,
			checker:  *checkerFlag,
			ops:      *opsFlag,
			seed:     *seedFlag,
			shards:   *shardsFlag,
			workers:  *workersFlag,
			out:      *tuneOut,
			minGain:  *tuneMinGain,
			cacheDir: *tuneCache,
		})
	}
	if *benchCompare {
		if fs.NArg() != 2 {
			return fmt.Errorf("mdreport -bench-compare: want <old> <new>, got %d args", fs.NArg())
		}
		return runBenchCompare(stdout, fs.Arg(0), fs.Arg(1), *benchTol, *benchChecksTol)
	}
	if *seedBenchOut != "" {
		if fs.NArg() != 1 {
			return fmt.Errorf("mdreport -seed-bench-budgets: want one BENCH file/dir arg, got %d", fs.NArg())
		}
		return runSeedBenchBudgets(stdout, fs.Arg(0), *seedBenchOut, *benchHeadroom, *benchChecksTol)
	}

	p := experiments.Params{NumOps: *opsFlag, Seed: *seedFlag}
	reports, err := buildReports(*machineFlag, *inFlag, p)
	if err != nil {
		return err
	}

	if *outFlag != "" {
		if err := os.MkdirAll(*outFlag, 0o755); err != nil {
			return err
		}
		for _, r := range reports {
			data, err := json.MarshalIndent(r, "", "  ")
			if err != nil {
				return err
			}
			path := filepath.Join(*outFlag, r.Machine+".json")
			if err := os.WriteFile(path, data, 0o644); err != nil {
				return err
			}
			fmt.Fprintf(stdout, "wrote %s\n", path)
		}
	}

	switch {
	case *jsonFlag:
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(reports); err != nil {
			return err
		}
	default:
		for _, r := range reports {
			fmt.Fprintln(stdout, experiments.FormatMachineReport(r))
		}
	}

	if *seedBudgets != "" {
		b := experiments.SeedBudgets(reports, *headroom)
		data, err := b.MarshalIndent()
		if err != nil {
			return err
		}
		if err := os.WriteFile(*seedBudgets, append(data, '\n'), 0o644); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "seeded %s (%d machines, %.0f%% headroom)\n",
			*seedBudgets, len(b), *headroom*100)
	}

	if *checkFlag != "" {
		budgets, err := experiments.LoadBudgets(*checkFlag)
		if err != nil {
			return err
		}
		if violations := experiments.CheckBudgets(budgets, reports); len(violations) > 0 {
			for _, v := range violations {
				fmt.Fprintf(stdout, "BUDGET EXCEEDED: %s\n", v)
			}
			return fmt.Errorf("%d budget violation(s) against %s", len(violations), *checkFlag)
		}
		fmt.Fprintf(stdout, "all %d machine(s) within %s budgets\n", len(reports), *checkFlag)
	}
	return nil
}

// buildReports resolves the machine selection: one builtin, one source
// file, or (default) every builtin machine.
func buildReports(builtin, path string, p experiments.Params) ([]*experiments.MachineReport, error) {
	var targets []struct {
		name    string
		m       *hmdes.Machine
		builtin machines.Name
	}
	switch {
	case builtin != "" && path != "":
		return nil, fmt.Errorf("give either -m or -in, not both")
	case path != "":
		m, err := cli.LoadMachine("", path)
		if err != nil {
			return nil, err
		}
		name := strings.TrimSuffix(filepath.Base(path), filepath.Ext(path))
		targets = append(targets, struct {
			name    string
			m       *hmdes.Machine
			builtin machines.Name
		}{name, m, ""})
	default:
		names := machines.All
		if builtin != "" {
			names = []machines.Name{machines.Name(strings.ToLower(builtin))}
		}
		for _, n := range names {
			m, err := machines.Load(n)
			if err != nil {
				return nil, err
			}
			targets = append(targets, struct {
				name    string
				m       *hmdes.Machine
				builtin machines.Name
			}{string(n), m, n})
		}
	}
	var reports []*experiments.MachineReport
	for _, t := range targets {
		r, err := experiments.BuildMachineReport(t.name, t.m, t.builtin, p)
		if err != nil {
			return nil, err
		}
		reports = append(reports, r)
	}
	return reports, nil
}
