// Package tools implements the logic of the command-line tools (mdc,
// mdinfo, schedbench, mdviz) as testable functions; the cmd/ mains are
// thin wrappers over these.
package tools

import (
	"bytes"
	"flag"
	"fmt"
	"io"
	"os"

	"mdes/internal/cli"
	"mdes/internal/hmdes"
	"mdes/internal/lowlevel"
	"mdes/internal/opt"
	"mdes/internal/textutil"
	"mdes/internal/verify"
)

// RunMDC is the mdc tool: compile a machine description, optimize it,
// report per-pass effects and sizes, optionally emit canonical source,
// dump structure, or write the arena (the binary fast-load form).
func RunMDC(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("mdc", flag.ContinueOnError)
	fs.SetOutput(stdout)

	var (
		machineFlag = fs.String("m", "", "built-in machine name (pa7100, pentium, supersparc, k5)")
		inFlag      = fs.String("in", "", "path to a high-level MDES source file")
		formFlag    = fs.String("form", "andor", "representation: or | andor")
		levelFlag   = fs.String("level", "full", "optimization level: none | redundancy | bit-vector | time-shift | full")
		dirFlag     = fs.String("dir", "forward", "usage-time shift direction: forward | backward")
		dumpFlag    = fs.Bool("dump", false, "dump the compiled constraint structure")
		emitFlag    = fs.Bool("emit", false, "emit the canonicalized high-level source and exit")
		arenaFlag   = fs.String("emit-arena", "", "write the optimized description as a flat arena (MDAR, zero-copy load format) to this file")
		factorFlag  = fs.Bool("factor", false, "discover AND/OR structure in flat OR-trees before optimizing")
		verifyFlag  = fs.Bool("verify", false, "differentially verify the machine: every pass and checker backend against the reference interpreter")
		vseedFlag   = fs.Int64("verifyseed", 1996, "instruction-stream seed for -verify")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	machine, err := cli.LoadMachine(*machineFlag, *inFlag)
	if err != nil {
		return err
	}
	if *emitFlag {
		fmt.Fprint(stdout, hmdes.Format(machine))
		return nil
	}
	if *verifyFlag {
		c, err := verify.CheckMachineStats(machine, *vseedFlag)
		if err != nil {
			return fmt.Errorf("machine %s FAILED verification: %w", machine.Name, err)
		}
		fmt.Fprintf(stdout, "machine %s verified: all optimization passes and checker backends agree with the reference interpretation\n", machine.Name)
		fmt.Fprintf(stdout, "differential evidence: %s\n", c.String())
		return nil
	}
	form, err := cli.ParseForm(*formFlag)
	if err != nil {
		return err
	}
	level, err := cli.ParseLevel(*levelFlag)
	if err != nil {
		return err
	}
	dir, err := cli.ParseDirection(*dirFlag)
	if err != nil {
		return err
	}

	ll := lowlevel.Compile(machine, form)
	before := ll.Size()
	var reports []opt.Report
	if *factorFlag {
		opt.EliminateRedundant(ll)
		reports = append(reports, opt.FactorORTrees(ll))
	}
	reports = append(reports, opt.Apply(ll, level, dir)...)
	after := ll.Size()

	fmt.Fprintf(stdout, "machine %s, %s form, %s level\n\n", machine.Name, form, level)
	if len(reports) == 0 {
		fmt.Fprintln(stdout, "(no optimization passes run)")
	}
	for _, r := range reports {
		fmt.Fprintln(stdout, " ", r)
	}
	fmt.Fprintln(stdout)

	t := textutil.NewTable("", "Trees", "Options", "Option bytes", "Tree bytes", "AND bytes", "Binding bytes", "Total")
	t.Row("before", before.NumTrees, before.NumOptions, before.OptionBytes, before.TreeBytes, before.AndBytes, before.BindingBytes, before.Total())
	t.Row("after", after.NumTrees, after.NumOptions, after.OptionBytes, after.TreeBytes, after.AndBytes, after.BindingBytes, after.Total())
	fmt.Fprintln(stdout, t.String())
	fmt.Fprintf(stdout, "size reduction: %s\n", textutil.Percent(float64(before.Total()), float64(after.Total())))

	if *arenaFlag != "" {
		arena, err := ll.EncodeArena()
		if err != nil {
			return fmt.Errorf("arena encode: %w", err)
		}
		if err := os.WriteFile(*arenaFlag, arena, 0o644); err != nil {
			return err
		}
		// Verify by reopening the written file and re-encoding what it
		// holds: a lossless round trip reproduces the arena byte for byte.
		data, err := os.ReadFile(*arenaFlag)
		if err != nil {
			return err
		}
		a, err := lowlevel.OpenArena(data)
		if err != nil {
			return fmt.Errorf("arena reload verification failed: %w", err)
		}
		again, err := a.MDES().EncodeArena()
		if err != nil {
			return fmt.Errorf("arena reload verification: %w", err)
		}
		if !bytes.Equal(arena, again) {
			return fmt.Errorf("arena reload verification: round trip is lossy")
		}
		fmt.Fprintf(stdout, "wrote %s (%d bytes, machine %s, reopened and verified lossless)\n",
			*arenaFlag, len(arena), a.MachineName())
	}

	if *dumpFlag {
		fmt.Fprintln(stdout)
		cli.DumpCompiled(stdout, ll)
	}
	return nil
}
