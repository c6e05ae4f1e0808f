package tools

import (
	"bufio"
	"context"
	"flag"
	"fmt"
	"io"
	"os"

	"mdes"
	"mdes/internal/cli"
	"mdes/internal/machines"
	"mdes/internal/trace"
)

const mdtraceUsage = `usage: mdtrace <command> [flags]

commands:
  record  schedule a workload and write a replayable binary trace
  dump    print a trace's metadata and outcomes, or (-jsonl) re-derive
          its per-attempt trace as one JSON line per block
  replay  re-run a trace and assert byte-identical schedules
  diff    compare two traces

run "mdtrace <command> -h" for each command's flags.
`

// RunMdtrace is the mdtrace tool: record scheduling runs as
// content-addressed binary traces, inspect them, render their
// per-attempt trace as JSON lines, replay them asserting byte-identical
// schedules, and diff two recordings.
func RunMdtrace(args []string, stdout io.Writer) error {
	if len(args) == 0 {
		fmt.Fprint(stdout, mdtraceUsage)
		return fmt.Errorf("missing command")
	}
	switch args[0] {
	case "record":
		return mdtraceRecord(args[1:], stdout)
	case "dump":
		return mdtraceDump(args[1:], stdout)
	case "replay":
		return mdtraceReplay(args[1:], stdout)
	case "diff":
		return mdtraceDiff(args[1:], stdout)
	case "-h", "-help", "--help", "help":
		fmt.Fprint(stdout, mdtraceUsage)
		return nil
	}
	fmt.Fprint(stdout, mdtraceUsage)
	return fmt.Errorf("unknown command %q", args[0])
}

// mdtraceCompile builds the unfrozen compiled description a trace's meta
// describes, with the meta's machine hash filled in from its fingerprint
// (Checker is left empty until an engine picks a backend).
func mdtraceCompile(machineName, form, level string) (*mdes.Compiled, trace.Meta, error) {
	var meta trace.Meta
	m, err := machines.Load(machines.Name(machineName))
	if err != nil {
		return nil, meta, err
	}
	f, err := cli.ParseForm(form)
	if err != nil {
		return nil, meta, err
	}
	lvl, err := cli.ParseLevel(level)
	if err != nil {
		return nil, meta, err
	}
	compiled := mdes.Compile(m, f)
	mdes.Optimize(compiled, lvl)
	fp, err := compiled.Fingerprint()
	if err != nil {
		return nil, meta, err
	}
	meta = trace.Meta{
		Machine:     machineName,
		MachineHash: fp,
		Form:        f.String(),
		Level:       lvl.String(),
	}
	return compiled, meta, nil
}

// mdtraceEngine builds the engine a trace's meta describes and returns
// it with the complete meta. Extra engine options (e.g. WithProfile for
// the tuning loop) are appended after the checker selection.
func mdtraceEngine(machineName, form, level, checker string, extra ...mdes.EngineOption) (*mdes.Engine, trace.Meta, error) {
	compiled, meta, err := mdtraceCompile(machineName, form, level)
	if err != nil {
		return nil, meta, err
	}
	kind, err := mdes.ParseCheckerKind(checker)
	if err != nil {
		return nil, meta, fmt.Errorf("%w\n%s", err, cli.FormatCheckerKinds())
	}
	eng, err := mdes.NewEngine(compiled, append([]mdes.EngineOption{mdes.WithChecker(kind)}, extra...)...)
	if err != nil {
		return nil, meta, err
	}
	meta.Checker = kind.String()
	return eng, meta, nil
}

func mdtraceRecord(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("mdtrace record", flag.ContinueOnError)
	fs.SetOutput(stdout)
	var (
		machineFlag = fs.String("machine", string(machines.K5), "machine description to schedule for")
		formFlag    = fs.String("form", "andor", "representation form: or | andor")
		levelFlag   = fs.String("level", "full", "optimization level: none | redundancy | bit-vector | time-shift | full")
		checkerFlag = fs.String("checker", "probeplan", "conflict-checker backend: probeplan or automaton")
		opsFlag     = fs.Int("ops", 20000, fmt.Sprintf("static operations in the generated workload (at most %d)", trace.MaxWorkloadOps))
		seedFlag    = fs.Int64("seed", 1996, "workload seed")
		shardsFlag  = fs.Int("shards", 4, fmt.Sprintf("workload generator shards (at most %d)", trace.MaxWorkloadShards))
		inlineFlag  = fs.Bool("inline", false, "embed the generated blocks in the trace instead of the (ops, seed, shards) spec")
		workersFlag = fs.Int("workers", 8, "scheduling goroutines")
		outFlag     = fs.String("o", "", "output trace file (required)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *outFlag == "" {
		return fmt.Errorf("mdtrace record: -o <file> is required")
	}
	eng, meta, err := mdtraceEngine(*machineFlag, *formFlag, *levelFlag, *checkerFlag)
	if err != nil {
		return err
	}
	// Materializing the workload refuses one outside the bounds a
	// recording may ask replay to build (trace.Workload.Check).
	wl := trace.Workload{Seeded: true, NumOps: *opsFlag, Seed: *seedFlag, Shards: *shardsFlag}
	if *inlineFlag {
		blocks, err := (&trace.Recording{Meta: meta, Workload: wl}).Blocks()
		if err != nil {
			return err
		}
		wl = trace.Workload{Blocks: blocks}
	}
	rec, err := trace.Capture(context.Background(), eng, meta, wl, *workersFlag)
	if err != nil {
		return err
	}
	f, err := os.Create(*outFlag)
	if err != nil {
		return err
	}
	id, err := trace.Write(f, rec)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "recorded %d blocks (%s, %s/%s, checker=%s) to %s\ntrace id %s, machine hash %s\n",
		len(rec.Outcomes), meta.Machine, meta.Form, meta.Level, meta.Checker, *outFlag, id, meta.MachineHash)
	return nil
}

func mdtraceReadFile(path string) (*trace.Recording, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	rec, err := trace.Read(f)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return rec, nil
}

func mdtraceDump(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("mdtrace dump", flag.ContinueOnError)
	fs.SetOutput(stdout)
	var (
		blocksFlag = fs.Int("blocks", 0, "also print the first N per-block outcomes")
		jsonlFlag  = fs.Bool("jsonl", false, "instead, replay the trace serially and print each block's per-attempt record as one JSON line, in block order; fails unless the replay reproduces the recording")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 1 {
		return fmt.Errorf("mdtrace dump: want one trace file, got %d args", fs.NArg())
	}
	rec, err := mdtraceReadFile(fs.Arg(0))
	if err != nil {
		return err
	}
	if *jsonlFlag {
		compiled, _, err := mdtraceCompile(rec.Meta.Machine, rec.Meta.Form, rec.Meta.Level)
		if err != nil {
			return err
		}
		w := bufio.NewWriter(stdout)
		err = trace.Render(w, compiled, rec)
		if ferr := w.Flush(); err == nil {
			err = ferr
		}
		if err != nil {
			return fmt.Errorf("mdtrace dump -jsonl: %w", err)
		}
		return nil
	}
	fmt.Fprintf(stdout, "trace id:     %s (format v%d)\n", rec.ID, trace.Version)
	fmt.Fprintf(stdout, "machine:      %s (hash %s)\n", rec.Meta.Machine, rec.Meta.MachineHash)
	fmt.Fprintf(stdout, "form/level:   %s / %s\n", rec.Meta.Form, rec.Meta.Level)
	fmt.Fprintf(stdout, "checker:      %s\n", rec.Meta.Checker)
	if rec.Workload.Seeded {
		fmt.Fprintf(stdout, "workload:     seeded (%d ops, seed %d, %d shards)\n",
			rec.Workload.NumOps, rec.Workload.Seed, rec.Workload.Shards)
	} else {
		nops := 0
		for _, b := range rec.Workload.Blocks {
			nops += len(b.Ops)
		}
		fmt.Fprintf(stdout, "workload:     inline (%d blocks, %d ops)\n", len(rec.Workload.Blocks), nops)
	}
	var total mdes.Counters
	cycles := 0
	for i := range rec.Outcomes {
		total.Add(rec.Outcomes[i].Counters)
		cycles += rec.Outcomes[i].Length
	}
	fmt.Fprintf(stdout, "outcomes:     %d blocks, %d total cycles\n", len(rec.Outcomes), cycles)
	fmt.Fprintf(stdout, "counters:     %s\n", total)
	for i := 0; i < *blocksFlag && i < len(rec.Outcomes); i++ {
		o := &rec.Outcomes[i]
		fmt.Fprintf(stdout, "block %4d: length %d, issue %v, %s\n", i, o.Length, o.Issue, o.Counters)
	}
	return nil
}

func mdtraceReplay(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("mdtrace replay", flag.ContinueOnError)
	fs.SetOutput(stdout)
	var (
		workersFlag = fs.Int("workers", 8, "scheduling goroutines")
		checkerFlag = fs.String("checker", "", "replay on this backend instead of the recorded one (schedules, attempts and conflicts must still match)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 1 {
		return fmt.Errorf("mdtrace replay: want one trace file, got %d args", fs.NArg())
	}
	rec, err := mdtraceReadFile(fs.Arg(0))
	if err != nil {
		return err
	}
	checker := rec.Meta.Checker
	if *checkerFlag != "" {
		checker = *checkerFlag
	}
	eng, meta, err := mdtraceEngine(rec.Meta.Machine, rec.Meta.Form, rec.Meta.Level, checker)
	if err != nil {
		return err
	}
	if err := rec.CheckHash(meta.MachineHash); err != nil {
		return fmt.Errorf("mdtrace replay: %w", err)
	}
	// Another backend must reproduce every schedule and the
	// backend-independent counters; options and resource checks measure
	// each backend's own work (the automaton counts DFA transitions).
	cross := meta.Checker != rec.Meta.Checker
	var rep *trace.ReplayReport
	if cross {
		var total mdes.Counters
		if rep, total, err = trace.ReplaySchedules(context.Background(), eng, rec, *workersFlag); err != nil {
			return err
		}
		if want := rec.Totals(); rep.Identical() && (total.Attempts != want.Attempts || total.Conflicts != want.Conflicts) {
			return fmt.Errorf("mdtrace replay: %s reproduced every schedule but made %d attempts with %d conflicts, recorded %d with %d",
				meta.Checker, total.Attempts, total.Conflicts, want.Attempts, want.Conflicts)
		}
	} else if rep, err = trace.Replay(context.Background(), eng, rec, *workersFlag); err != nil {
		return err
	}
	if !rep.Identical() {
		for i, m := range rep.Mismatches {
			if i >= 10 {
				fmt.Fprintf(stdout, "... and %d more mismatches\n", len(rep.Mismatches)-i)
				break
			}
			fmt.Fprintf(stdout, "block %d: %s\n", m.Block, m.What)
		}
		return fmt.Errorf("mdtrace replay: %d of %d blocks diverged from trace %s", len(rep.Mismatches), rep.Blocks, rec.ID)
	}
	if cross {
		fmt.Fprintf(stdout, "replayed %d blocks with byte-identical schedules and equal attempts and conflicts (trace %s, machine %s hash %s, checker %s, recorded with %s)\n",
			rep.Blocks, rec.ID, rec.Meta.Machine, rec.Meta.MachineHash, checker, rec.Meta.Checker)
		return nil
	}
	fmt.Fprintf(stdout, "replayed %d blocks byte-identically (trace %s, machine %s hash %s, checker %s)\n",
		rep.Blocks, rec.ID, rec.Meta.Machine, rec.Meta.MachineHash, checker)
	return nil
}

func mdtraceDiff(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("mdtrace diff", flag.ContinueOnError)
	fs.SetOutput(stdout)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 2 {
		return fmt.Errorf("mdtrace diff: want two trace files, got %d args", fs.NArg())
	}
	a, err := mdtraceReadFile(fs.Arg(0))
	if err != nil {
		return err
	}
	b, err := mdtraceReadFile(fs.Arg(1))
	if err != nil {
		return err
	}
	diffs := trace.Diff(a, b)
	if len(diffs) == 0 {
		fmt.Fprintf(stdout, "identical recordings (trace %s)\n", a.ID)
		return nil
	}
	for _, d := range diffs {
		fmt.Fprintln(stdout, d)
	}
	return fmt.Errorf("mdtrace diff: recordings differ (%s vs %s)", a.ID, b.ID)
}
