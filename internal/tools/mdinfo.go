package tools

import (
	"context"
	"flag"
	"fmt"
	"io"
	"sort"
	"strings"
	"time"

	"mdes"
	"mdes/internal/cli"
	"mdes/internal/descache"
	"mdes/internal/experiments"
	"mdes/internal/machines"
	"mdes/internal/textutil"
	"mdes/internal/workload"
)

// RunMDInfo is the mdinfo tool: inspect a machine description's
// resources, classes, operations, and option breakdown (optionally with
// scheduled-attempt attribution).
func RunMDInfo(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("mdinfo", flag.ContinueOnError)
	fs.SetOutput(stdout)

	var (
		machineFlag = fs.String("m", "", "built-in machine name")
		inFlag      = fs.String("in", "", "path to a high-level MDES source file")
		schedFlag   = fs.Bool("sched", false, "run the synthetic workload to attribute scheduling attempts (built-in machines only)")
		statsFlag   = fs.Bool("stats", false, "run the synthetic workload under the observability layer and print the metrics tables (built-in machines only)")
		optFlag     = fs.String("opt", "", "optimization level (none|redundancy|bit-vector|time-shift|full): print the translator's per-pass ledger; with -stats, included in the metrics report")
		opsFlag     = fs.Int("ops", 20000, "workload size for -sched/-stats")
		seedFlag    = fs.Int64("seed", 1996, "workload seed for -sched/-stats")
		checkerFlag = fs.String("checker", "probeplan", "conflict-checker backend for -stats: probeplan or automaton")
		cacheFlag   = fs.String("cache", "", "list and checksum-verify a compiled-description cache directory instead of inspecting a machine")
		cacheGCFlag = fs.Bool("cache-gc", false, "with -cache: evict least-recently-used entries until the directory fits -cache-max")
		cacheMaxFlg = fs.Int64("cache-max", 0, "with -cache-gc: LRU byte budget for the cache directory")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	// Cache mode stands alone: it inspects a cache directory, not a machine.
	if *cacheFlag != "" {
		return runCacheInfo(stdout, *cacheFlag, *cacheGCFlag, *cacheMaxFlg)
	}

	m, err := cli.LoadMachine(*machineFlag, *inFlag)
	if err != nil {
		return err
	}

	level := mdes.LevelFull
	if *optFlag != "" {
		if level, err = cli.ParseLevel(*optFlag); err != nil {
			return err
		}
	}

	fmt.Fprintf(stdout, "machine %s: %d resources, %d shared trees, %d classes, %d operations\n\n",
		m.Name, m.Resources.Len(), len(m.TreeNames), len(m.ClassNames), len(m.OpNames))

	rt := textutil.NewTable("Resource", "Instances")
	groups := map[string]int{}
	var order []string
	for i := 0; i < m.Resources.Len(); i++ {
		g := m.Resources.Group(i)
		if groups[g] == 0 {
			order = append(order, g)
		}
		groups[g]++
	}
	for _, g := range order {
		rt.Row(g, groups[g])
	}
	fmt.Fprintln(stdout, rt.String())

	ot := textutil.NewTable("Operation", "Class", "Options", "Cascaded", "Latency")
	for _, name := range m.OpNames {
		op := m.Operations[name]
		casc := "-"
		if op.Cascaded != "" {
			casc = fmt.Sprintf("%s (%d)", op.Cascaded, m.Classes[op.Cascaded].OptionCount())
		}
		ot.Row(name, op.Class, m.Classes[op.Class].OptionCount(), casc, op.Latency)
	}
	fmt.Fprintln(stdout, ot.String())

	if *statsFlag {
		if *machineFlag == "" {
			return fmt.Errorf("-stats requires a built-in machine (-m)")
		}
		name := machines.Name(strings.ToLower(*machineFlag))
		compiled := mdes.Compile(m, mdes.FormAndOr)
		led, _ := mdes.OptimizeWithLedger(compiled, level, mdes.Forward)
		led.Machine = m.Name
		metrics := mdes.NewMetrics(compiled)
		if *optFlag != "" {
			// The ledger rides along in the registry, so FormatMetrics
			// prints it ahead of the runtime tables.
			metrics.SetTranslator(led)
		}
		kind, err := mdes.ParseCheckerKind(*checkerFlag)
		if err != nil {
			fmt.Fprintf(stdout, "unknown checker %q\n%s", *checkerFlag, cli.FormatCheckerKinds())
			return nil
		}
		eng, err := mdes.NewEngine(compiled, mdes.WithMetrics(metrics), mdes.WithChecker(kind))
		if err != nil {
			return err
		}
		prog, err := workload.Generate(workload.Config{Machine: name, NumOps: *opsFlag, Seed: *seedFlag})
		if err != nil {
			return err
		}
		if _, _, err := eng.ScheduleBlocks(context.Background(), prog.Blocks, 0); err != nil {
			return err
		}
		fmt.Fprintln(stdout, mdes.FormatMetrics(metrics))
		return nil
	}

	if *schedFlag {
		if *machineFlag == "" {
			return (fmt.Errorf("-sched requires a built-in machine (-m)"))
		}
		name := machines.Name(strings.ToLower(*machineFlag))
		rows, res, err := experiments.Breakdown(name, experiments.Params{NumOps: *opsFlag, Seed: *seedFlag})
		if err != nil {
			return err
		}
		fmt.Fprintln(stdout, experiments.FormatBreakdown(name, rows))
		fmt.Fprintf(stdout, "scheduled %d ops, %.2f attempts/op\n", res.TotalOps, res.AttemptsPerOp())
		return nil
	}

	if *optFlag != "" {
		// Ledger-only mode: compile at the requested level and print the
		// per-pass ledger (works for -in machines too).
		compiled := mdes.Compile(m, mdes.FormAndOr)
		led, _ := mdes.OptimizeWithLedger(compiled, level, mdes.Forward)
		led.Machine = m.Name
		fmt.Fprintln(stdout, mdes.FormatLedger(led))
		return nil
	}

	// Static breakdown without scheduling.
	bd := machines.OptionBreakdown(m)
	return staticBreakdown(stdout, bd)
}

func staticBreakdown(stdout io.Writer, bd map[int][]string) error {
	var counts []int
	for n := range bd {
		counts = append(counts, n)
	}
	sort.Ints(counts)
	bt := textutil.NewTable("Options", "Classes")
	for _, n := range counts {
		bt.Row(n, strings.Join(bd[n], " "))
	}
	fmt.Fprintln(stdout, bt.String())
	return nil
}

// runCacheInfo is mdinfo's cache mode: list a compiled-description cache
// directory with every entry checksum-verified, optionally enforcing an
// LRU byte budget first. Corrupt entries are listed (status "CORRUPT")
// and make the run fail, so `mdinfo -cache dir` doubles as the CI cache
// health check.
func runCacheInfo(stdout io.Writer, dir string, gc bool, maxBytes int64) error {
	store, err := descache.Open(dir, maxBytes)
	if err != nil {
		return err
	}
	if gc {
		if maxBytes <= 0 {
			return fmt.Errorf("-cache-gc requires a positive -cache-max budget")
		}
		evicted, freed, err := store.GC()
		if err != nil {
			return err
		}
		fmt.Fprintf(stdout, "gc: evicted %d entries, freed %d bytes (budget %d)\n\n",
			len(evicted), freed, maxBytes)
		for _, name := range evicted {
			fmt.Fprintf(stdout, "  evicted %s\n", name)
		}
		if len(evicted) > 0 {
			fmt.Fprintln(stdout)
		}
	}
	infos, err := store.List(true)
	if err != nil {
		return err
	}
	var total int64
	corrupt := 0
	t := textutil.NewTable("Key", "Machine", "Form", "Level", "Size", "Age", "Tuned", "Status")
	for _, in := range infos {
		total += in.Size
		status := "ok"
		if in.Err != nil {
			status = "CORRUPT"
			corrupt++
		}
		tuned := "-"
		if in.Tuned {
			tuned = "yes"
		}
		t.Row(cacheEntryKey(in.Name), in.Machine, in.Form, cacheEntryLevel(in.Name),
			in.Size, cacheAge(in.ModTime), tuned, status)
	}
	fmt.Fprintln(stdout, t.String())
	fmt.Fprintf(stdout, "%d entries, %d bytes total\n", len(infos), total)
	if corrupt > 0 {
		return fmt.Errorf("%d corrupt cache entries (checksum or structural validation failed)", corrupt)
	}
	return nil
}

// cacheEntryKey renders an entry filename as its short key: the hash plus
// a tuned marker, without the redundant form/level (they get columns).
func cacheEntryKey(name string) string {
	name = strings.TrimSuffix(name, ".mdar")
	if i := strings.Index(name, ".tuned-"); i >= 0 {
		name = name[:i]
	}
	parts := strings.SplitN(name, "-", 3)
	if len(parts) >= 2 {
		return parts[0] + "-" + parts[1]
	}
	return name
}

// cacheEntryLevel extracts the optimization-level component of an entry
// name ("a5-<hash>-<form>-<level>[-flags][.tuned-...].mdar").
func cacheEntryLevel(name string) string {
	name = strings.TrimSuffix(name, ".mdar")
	if i := strings.Index(name, ".tuned-"); i >= 0 {
		name = name[:i]
	}
	parts := strings.Split(name, "-")
	if len(parts) < 4 {
		return "?"
	}
	return strings.Join(parts[3:], "-")
}

// cacheAge renders an entry's age coarsely — listings care about LRU
// order, not precision.
func cacheAge(mod time.Time) string {
	d := time.Since(mod)
	switch {
	case d < time.Minute:
		return fmt.Sprintf("%ds", int(d.Seconds()))
	case d < time.Hour:
		return fmt.Sprintf("%dm", int(d.Minutes()))
	case d < 48*time.Hour:
		return fmt.Sprintf("%dh", int(d.Hours()))
	default:
		return fmt.Sprintf("%dd", int(d.Hours()/24))
	}
}
