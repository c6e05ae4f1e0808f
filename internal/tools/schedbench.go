package tools

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"time"

	"mdes"
	"mdes/internal/cli"
	"mdes/internal/experiments"
	"mdes/internal/machines"
	"mdes/internal/workload"
)

// RunSchedbench is the schedbench tool: regenerate the paper's tables and
// Figure 2, or (with -metrics/-report/-profile/-flight) run one machine's
// workload under the observability layer.
func RunSchedbench(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("schedbench", flag.ContinueOnError)
	fs.SetOutput(stdout)

	var (
		tableFlag    = fs.Int("table", 0, "regenerate a single table (1-15); 0 = all")
		fig2Flag     = fs.Bool("fig2", false, "regenerate Figure 2 only")
		extFlag      = fs.Bool("ext", false, "report the extension ablations (factorization, automaton, E-D, modulo)")
		parallelFlag = fs.Int("parallel", 0, "run the concurrent-serving benchmark sweeping parallelism up to N over one shared frozen MDES")
		opsFlag      = fs.Int("ops", 20000, "static operations per machine")
		seedFlag     = fs.Int64("seed", 1996, "workload seed")

		machineFlag    = fs.String("machine", string(machines.K5), "machine for the observability run (-metrics/-report/-profile/-flight)")
		metricsFlag    = fs.String("metrics", "", "serve /metrics, /metrics.json, /healthz and /debug/pprof on this address during the run (e.g. :8080)")
		reportFlag     = fs.Bool("report", false, "print the metrics registry as tables after the run")
		profileFlag    = fs.Bool("profile", false, "attach the conflict-attribution profiler (served at /debug/profile with -metrics, printed with -report)")
		checkerFlag    = fs.String("checker", "probeplan", "conflict-checker backend for the observability run: probeplan or automaton")
		repeatFlag     = fs.Int("repeat", 1, "schedule the workload N times (gives -metrics something to watch)")
		workersFlag    = fs.Int("workers", 8, "scheduling goroutines for the observability run")
		flightFlag     = fs.Bool("flight", false, "attach the always-on flight recorder (tail quantiles, anomaly capture; served at /debug/flight with -metrics)")
		flightdumpFlag = fs.String("flightdump", "", "write the flight recorder's JSON dump to this file after the run (implies -flight)")

		benchjsonFlag = fs.String("benchjson", "", "write one BENCH_<machine>_<checker>.json perf artifact (blocks/s, ms/op, checks/attempt) per machine x checker to this directory, plus BENCH_<machine>_coldstart-*.json cold-start records")
		cachedirFlag  = fs.String("cachedir", "", "build the observability run's engine through the compiled-description cache in this directory (EngineFromCache) instead of the in-process pipeline")

		selftestFlag = fs.Bool("selftest", false, "run the differential correctness harness (hand-written + generated machines); -seed sets the first generator seed")
		countFlag    = fs.Int("n", 200, "generated machines to verify with -selftest")
		failoutFlag  = fs.String("failout", "", "write failing-seed reproducers (.txt report + minimized .mdes) to this directory with -selftest")

		serveFlag     = fs.String("serve", "", "soak a live mdesd daemon at this base URL (e.g. http://127.0.0.1:7077), or 'self' to start an in-process daemon for the run")
		soakDurFlag   = fs.Duration("soak-duration", 30*time.Second, "soak duration with -serve")
		soakTenFlag   = fs.Int("soak-tenants", 2, "tenants to soak with -serve (machines assigned round-robin)")
		soakCliFlag   = fs.Int("soak-clients", 8, "concurrent clients per tenant with -serve")
		soakOpsFlag   = fs.Int("soak-ops", 400, "static operations per scheduled batch with -serve")
		soakFloorFlag = fs.Float64("soak-floor", 0, "fail the soak if sustained blocks/s falls below this floor (0 disables the gate)")
		soakSwapFlag  = fs.Bool("soak-swap", false, "hot-swap every tenant's description mid-soak and assert drain + fingerprint discipline")
		soakFaultFlag = fs.Bool("soak-faults", false, "inject protocol/content faults mid-soak and assert structured degradation")
		soakOutFlag   = fs.String("soak-out", "", "write the soak's JSON report to this file")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	p := experiments.Params{NumOps: *opsFlag, Seed: *seedFlag}

	if *serveFlag != "" {
		return runSoak(stdout, soakConfig{
			target:   *serveFlag,
			duration: *soakDurFlag,
			tenants:  *soakTenFlag,
			clients:  *soakCliFlag,
			numOps:   *soakOpsFlag,
			floor:    *soakFloorFlag,
			swap:     *soakSwapFlag,
			faults:   *soakFaultFlag,
			out:      *soakOutFlag,
			seed:     *seedFlag,
		})
	}

	if *selftestFlag {
		return runSelftest(stdout, *seedFlag, *countFlag, *failoutFlag)
	}

	if *benchjsonFlag != "" {
		return runBenchJSON(stdout, p, *benchjsonFlag)
	}

	if *metricsFlag != "" || *reportFlag || *flightFlag || *flightdumpFlag != "" || *profileFlag || *cachedirFlag != "" {
		kind, err := mdes.ParseCheckerKind(*checkerFlag)
		if err != nil {
			fmt.Fprintf(stdout, "unknown checker %q\n%s", *checkerFlag, cli.FormatCheckerKinds())
			return nil
		}
		return runObserve(stdout, p, observeConfig{
			machine:    machines.Name(*machineFlag),
			checker:    kind,
			metrics:    *metricsFlag,
			report:     *reportFlag,
			profile:    *profileFlag,
			repeat:     *repeatFlag,
			workers:    *workersFlag,
			flight:     *flightFlag || *flightdumpFlag != "",
			flightdump: *flightdumpFlag,
			cachedir:   *cachedirFlag,
		})
	}
	if *parallelFlag > 0 {
		return runParallel(stdout, p, *parallelFlag)
	}
	if *extFlag {
		rep, err := experiments.RunExtensions(p)
		if err != nil {
			return err
		}
		fmt.Fprintln(stdout, rep.Format())
		return nil
	}
	if *fig2Flag {
		return runFig2(stdout, p)
	}
	if *tableFlag != 0 {
		return runTable(stdout, *tableFlag, p)
	}
	for n := 1; n <= 15; n++ {
		if err := runTable(stdout, n, p); err != nil {
			return err
		}
		fmt.Fprintln(stdout)
	}
	return runFig2(stdout, p)
}

// observeConfig parameterizes the observability run.
type observeConfig struct {
	machine    machines.Name
	checker    mdes.CheckerKind
	metrics    string
	report     bool
	profile    bool
	repeat     int
	workers    int
	flight     bool
	flightdump string
	cachedir   string
}

// runObserve schedules one machine's workload on an Engine with the
// observability layer attached: a metrics registry (optionally served
// over HTTP alongside pprof), the conflict profile, the flight recorder,
// and the human-readable report. The per-attempt trace of the same
// workload is `mdtrace record` followed by `mdtrace dump -jsonl`.
func runObserve(stdout io.Writer, p experiments.Params, cfg observeConfig) error {
	var compiled *mdes.Compiled
	if cfg.cachedir != "" {
		// Cache-backed cold start: consult (and populate) the
		// compiled-description cache. A warm hit skips the whole pipeline,
		// so there is no translator ledger to publish on that path.
		src, err := machines.Source(cfg.machine)
		if err != nil {
			return err
		}
		start := time.Now()
		compiled, err = mdes.LoadCached(string(cfg.machine)+".mdes", src,
			mdes.FormAndOr, mdes.LevelFull, cfg.cachedir)
		if err != nil {
			return err
		}
		state := "cold (pipeline ran, entry stored)"
		if compiled.Frozen() {
			state = "warm (frozen zero-copy arena view)"
		}
		fmt.Fprintf(stdout, "cache %s: %s hit in %s\n", cfg.cachedir, state, time.Since(start).Round(time.Microsecond))
	}
	var led *mdes.Ledger
	if compiled == nil {
		machine, err := machines.Load(cfg.machine)
		if err != nil {
			return err
		}
		compiled = mdes.Compile(machine, mdes.FormAndOr)
		led, _ = mdes.OptimizeWithLedger(compiled, mdes.LevelFull, mdes.Forward)
		led.Machine = string(cfg.machine)
	}

	metrics := mdes.NewMetrics(compiled)
	if led != nil {
		// Publish the translator's pass ledger so -report and the HTTP
		// exporters cover compile time and run time in one pipe.
		metrics.SetTranslator(led)
	}
	opts := []mdes.EngineOption{mdes.WithMetrics(metrics), mdes.WithChecker(cfg.checker)}
	var flight *mdes.FlightRecorder
	if cfg.flight {
		flight = mdes.NewFlightRecorder(mdes.FlightConfig{})
		opts = append(opts, mdes.WithFlight(flight))
	}
	var prof *mdes.ConflictProfile
	if cfg.profile {
		prof = mdes.NewConflictProfile(compiled)
		opts = append(opts, mdes.WithProfile(prof))
	}
	eng, err := mdes.NewEngine(compiled, opts...)
	if err != nil {
		return err
	}
	if cfg.metrics != "" {
		var srvOpts []mdes.ServerOption
		if flight != nil {
			srvOpts = append(srvOpts, mdes.WithFlightExporter(flight))
		}
		if prof != nil {
			srvOpts = append(srvOpts, mdes.WithProfileExporter(prof))
		}
		srv, err := mdes.ServeMetrics(cfg.metrics, metrics, srvOpts...)
		if err != nil {
			return err
		}
		defer srv.Close()
		fmt.Fprintf(stdout, "serving http://%s/metrics (+ /metrics.json, /healthz, /debug/pprof) during the run\n", srv.Addr)
	}

	prog, err := workload.GenerateParallel(workload.Config{Machine: cfg.machine, NumOps: p.NumOps, Seed: p.Seed}, 4)
	if err != nil {
		return err
	}
	if prof != nil {
		prof.SetWorkload(fmt.Sprintf("%s ops=%d seed=%d", cfg.machine, p.NumOps, p.Seed))
	}
	if cfg.repeat < 1 {
		cfg.repeat = 1
	}
	start := time.Now()
	for i := 0; i < cfg.repeat; i++ {
		if _, _, err := eng.ScheduleBlocks(context.Background(), prog.Blocks, cfg.workers); err != nil {
			return err
		}
	}
	elapsed := time.Since(start)
	fmt.Fprintf(stdout, "%s [checker=%s]: scheduled %d blocks x%d (%d ops) with %d workers in %s: %s\n",
		cfg.machine, eng.CheckerKind(), len(prog.Blocks), cfg.repeat, p.NumOps, cfg.workers,
		elapsed.Round(time.Microsecond), eng.Totals())
	if flight != nil {
		blocks, anomalies := flight.Status()
		fmt.Fprintf(stdout, "flight recorder: %d blocks merged, %d anomalies\n", blocks, anomalies)
		if cfg.flightdump != "" {
			f, err := os.Create(cfg.flightdump)
			if err != nil {
				return err
			}
			err = flight.WriteDump(f)
			if cerr := f.Close(); err == nil {
				err = cerr
			}
			if err != nil {
				return err
			}
			fmt.Fprintf(stdout, "flight dump written to %s\n", cfg.flightdump)
		}
	}
	if cfg.report {
		fmt.Fprintln(stdout, mdes.FormatMetrics(metrics))
	}
	if prof != nil && cfg.report {
		fmt.Fprintln(stdout, mdes.FormatProfile(prof.Snapshot(), 0))
	}
	return nil
}

// runParallel is the concurrent-serving benchmark: one frozen compiled
// description per machine, scheduled by pools of 1..maxPar goroutines
// borrowing contexts from the engine. Schedule lengths are verified
// identical to the serial run at every parallelism level; speedup is
// bounded by min(parallelism, GOMAXPROCS).
func runParallel(stdout io.Writer, p experiments.Params, maxPar int) error {
	fmt.Fprintf(stdout, "Concurrent scheduling: shared frozen MDES, pooled contexts (%d ops/machine)\n", p.NumOps)
	fmt.Fprintf(stdout, "%-12s %9s %12s %12s %9s\n", "machine", "parallel", "wall-clock", "blocks/s", "speedup")
	for _, name := range machines.All {
		machine, err := machines.Load(name)
		if err != nil {
			return err
		}
		compiled := mdes.Compile(machine, mdes.FormAndOr)
		mdes.Optimize(compiled, mdes.LevelFull)
		eng, err := mdes.NewEngine(compiled)
		if err != nil {
			return err
		}
		prog, err := workload.GenerateParallel(workload.Config{Machine: name, NumOps: p.NumOps, Seed: p.Seed}, 4)
		if err != nil {
			return err
		}
		var base time.Duration
		var serial []*mdes.Result
		for par := 1; par <= maxPar; par *= 2 {
			start := time.Now()
			results, _, err := eng.ScheduleBlocks(context.Background(), prog.Blocks, par)
			if err != nil {
				return err
			}
			elapsed := time.Since(start)
			if par == 1 {
				base, serial = elapsed, results
			} else {
				for bi, r := range results {
					if r.Length != serial[bi].Length {
						return fmt.Errorf("%s parallelism %d block %d: length %d != serial %d",
							name, par, bi, r.Length, serial[bi].Length)
					}
				}
			}
			fmt.Fprintf(stdout, "%-12s %9d %12s %12.0f %8.2fx\n",
				name, par, elapsed.Round(time.Microsecond),
				float64(len(prog.Blocks))/elapsed.Seconds(), float64(base)/float64(elapsed))
		}
	}
	return nil
}

// runBenchJSON schedules every built-in machine's workload once per
// checker backend and writes one BENCH_<machine>_<checker>.json artifact
// per eligible pair to dir (the experiments.BenchRecord format that
// `mdreport -bench-compare` gates on). Backends a machine is ineligible
// for (e.g. the automaton's resource-count limit) are reported and
// skipped, not errors.
func runBenchJSON(stdout io.Writer, p experiments.Params, dir string) error {
	if err := os.MkdirAll(dir, 0o777); err != nil {
		return err
	}
	commit := benchCommit()
	generatedAt := time.Now().UTC().Format(time.RFC3339)
	const rounds = 3
	for _, name := range machines.All {
		machine, err := machines.Load(name)
		if err != nil {
			return err
		}
		compiled := mdes.Compile(machine, mdes.FormAndOr)
		mdes.Optimize(compiled, mdes.LevelFull)
		fingerprint, err := compiled.Fingerprint()
		if err != nil {
			return err
		}
		prog, err := workload.GenerateParallel(workload.Config{Machine: name, NumOps: p.NumOps, Seed: p.Seed}, 4)
		if err != nil {
			return err
		}
		for _, kind := range mdes.CheckerKinds() {
			eng, err := mdes.NewEngine(compiled, mdes.WithChecker(kind))
			if err != nil {
				fmt.Fprintf(stdout, "%s/%s: skipped (%v)\n", name, kind, err)
				continue
			}
			best := time.Duration(1<<63 - 1)
			var total mdes.Counters
			for i := 0; i < rounds; i++ {
				start := time.Now()
				if _, total, err = eng.ScheduleBlocks(context.Background(), prog.Blocks, 1); err != nil {
					return err
				}
				if d := time.Since(start); d < best {
					best = d
				}
			}
			art := experiments.BenchRecord{
				Schema:           experiments.BenchSchema,
				MachineHash:      fingerprint,
				Commit:           commit,
				GeneratedAt:      generatedAt,
				Machine:          string(name),
				Checker:          kind.String(),
				NumOps:           p.NumOps,
				Seed:             p.Seed,
				Blocks:           len(prog.Blocks),
				Rounds:           rounds,
				BlocksPerSec:     float64(len(prog.Blocks)) / best.Seconds(),
				MsPerOp:          best.Seconds() * 1e3 / float64(p.NumOps),
				ChecksPerAttempt: float64(total.ResourceChecks) / float64(total.Attempts),
			}
			path := filepath.Join(dir, fmt.Sprintf("BENCH_%s_%s.json", name, kind))
			data, err := json.MarshalIndent(art, "", "  ")
			if err != nil {
				return err
			}
			if err := os.WriteFile(path, append(data, '\n'), 0o666); err != nil {
				return err
			}
			fmt.Fprintf(stdout, "%s: %.0f blocks/s, %.4f ms/op, %.2f checks/attempt\n",
				path, art.BlocksPerSec, art.MsPerOp, art.ChecksPerAttempt)
		}
		if err := writeColdstartRecords(stdout, dir, name, commit, generatedAt); err != nil {
			return err
		}
	}
	return nil
}

// writeColdstartRecords measures time-to-Engine for one machine over the
// two cold-start paths the description cache trades between — the full
// HMDES parse → compile → optimize pipeline, and a verified arena open —
// and writes each as a BENCH record whose rate is engine starts per
// second. FormOR/LevelFull with a probe-plan engine is the configuration
// the paper's cold-start numbers are quoted for, and what
// TestColdStartSpeedupGate gates at 50×. ChecksPerAttempt is zero: no
// scheduling happens, so the checks budget is ungated by convention.
func writeColdstartRecords(stdout io.Writer, dir string, name machines.Name, commit, generatedAt string) error {
	src, err := machines.Source(name)
	if err != nil {
		return err
	}
	pipeline := func() (*mdes.Engine, error) {
		m, err := mdes.Load(string(name)+".mdes", src)
		if err != nil {
			return nil, err
		}
		c := mdes.Compile(m, mdes.FormOR)
		mdes.Optimize(c, mdes.LevelFull)
		return mdes.NewEngine(c, mdes.WithChecker(mdes.CheckerProbePlan))
	}
	// One pipeline run seeds the arena buffer and the record's fingerprint.
	eng, err := pipeline()
	if err != nil {
		return err
	}
	fingerprint, err := eng.Compiled().Fingerprint()
	if err != nil {
		return err
	}
	arena, err := mdes.EncodeArena(eng.Compiled())
	if err != nil {
		return err
	}
	arenaOpen := func() (*mdes.Engine, error) {
		a, err := mdes.OpenArena(arena)
		if err != nil {
			return nil, err
		}
		return mdes.NewEngine(a.FrozenMDES(), mdes.WithChecker(mdes.CheckerProbePlan))
	}
	paths := []struct {
		checker string
		rounds  int
		start   func() (*mdes.Engine, error)
	}{
		// The arena path gets more rounds: it is microseconds-fast, so
		// min-of-N needs more samples to shed scheduler noise.
		{"coldstart-pipeline", 3, pipeline},
		{"coldstart-arena", 15, arenaOpen},
	}
	for _, p := range paths {
		best := time.Duration(1<<63 - 1)
		for i := 0; i < p.rounds; i++ {
			start := time.Now()
			if _, err := p.start(); err != nil {
				return err
			}
			if d := time.Since(start); d < best {
				best = d
			}
		}
		art := experiments.BenchRecord{
			Schema:       experiments.BenchSchema,
			MachineHash:  fingerprint,
			Commit:       commit,
			GeneratedAt:  generatedAt,
			Machine:      string(name),
			Checker:      p.checker,
			Blocks:       1,
			Rounds:       p.rounds,
			BlocksPerSec: 1 / best.Seconds(),
			MsPerOp:      best.Seconds() * 1e3,
		}
		path := filepath.Join(dir, fmt.Sprintf("BENCH_%s_%s.json", name, p.checker))
		data, err := json.MarshalIndent(art, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(path, append(data, '\n'), 0o666); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "%s: %.0f engine starts/s, %.4f ms/start\n", path, art.BlocksPerSec, art.MsPerOp)
	}
	return nil
}

// benchCommit resolves the source revision bench artifacts are stamped
// with: GITHUB_SHA in CI, the working tree's HEAD locally, "unknown"
// outside a checkout.
func benchCommit() string {
	if sha := os.Getenv("GITHUB_SHA"); sha != "" {
		return sha
	}
	out, err := exec.Command("git", "rev-parse", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

func runFig2(stdout io.Writer, p experiments.Params) error {
	f, err := experiments.RunFigure2(p)
	if err != nil {
		return err
	}
	fmt.Fprintln(stdout, f.Format())
	return nil
}

func runTable(stdout io.Writer, n int, p experiments.Params) error {
	switch n {
	case 1, 2, 3, 4:
		name := machines.All[map[int]int{2: 0, 3: 1, 1: 2, 4: 3}[n]]
		rows, res, err := experiments.Breakdown(name, p)
		if err != nil {
			return err
		}
		fmt.Fprintf(stdout, "Table %d: ", n)
		fmt.Fprintln(stdout, experiments.FormatBreakdown(name, rows))
		fmt.Fprintf(stdout, "(%d ops, %.2f attempts/op)\n", res.TotalOps, res.AttemptsPerOp())
	case 5:
		rows, err := experiments.Table5(p)
		if err != nil {
			return err
		}
		fmt.Fprintln(stdout, experiments.FormatTable5(rows))
	case 6:
		rows, err := experiments.Table6()
		if err != nil {
			return err
		}
		fmt.Fprintln(stdout, experiments.FormatSizeRows("Table 6: original MDES memory requirements", rows))
	case 7:
		rows, err := experiments.Table7()
		if err != nil {
			return err
		}
		fmt.Fprintln(stdout, experiments.FormatSizeRows("Table 7: MDES memory after eliminating redundant and unused information", rows))
	case 8:
		row, err := experiments.Table8(p)
		if err != nil {
			return err
		}
		fmt.Fprintln(stdout, experiments.FormatTable8(row))
	case 9:
		rows, err := experiments.Table9()
		if err != nil {
			return err
		}
		fmt.Fprintln(stdout, experiments.FormatBeforeAfter("Table 9: MDES size before/after bit-vector packing", "bytes", rows))
	case 10:
		rows, err := experiments.Table10(p)
		if err != nil {
			return err
		}
		fmt.Fprintln(stdout, experiments.FormatBeforeAfter("Table 10: scheduling checks before/after bit-vector packing", "checks/attempt", rows))
	case 11:
		rows, err := experiments.Table11()
		if err != nil {
			return err
		}
		fmt.Fprintln(stdout, experiments.FormatBeforeAfter("Table 11: MDES size before/after usage-time transformation", "bytes", rows))
	case 12:
		rows, err := experiments.Table12(p)
		if err != nil {
			return err
		}
		fmt.Fprintln(stdout, experiments.FormatTable12(rows))
	case 13:
		rows, err := experiments.Table13(p)
		if err != nil {
			return err
		}
		fmt.Fprintln(stdout, experiments.FormatTable13(rows))
	case 14:
		rows, err := experiments.Table14()
		if err != nil {
			return err
		}
		fmt.Fprintln(stdout, experiments.FormatAggregate("Table 14: aggregate effect of all transformations on MDES size", "bytes", rows))
	case 15:
		rows, err := experiments.Table15(p)
		if err != nil {
			return err
		}
		fmt.Fprintln(stdout, experiments.FormatAggregate("Table 15: aggregate effect of all transformations on checks per attempt", "checks/attempt", rows))
	default:
		return fmt.Errorf("no table %d (valid: 1-15)", n)
	}
	return nil
}
