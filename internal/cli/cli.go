// Package cli holds the shared flag parsing and output helpers of the
// command-line tools (mdc, mdinfo, schedbench, mdviz).
package cli

import (
	"fmt"
	"io"
	"os"
	"strings"

	"mdes/internal/hmdes"
	"mdes/internal/lowlevel"
	"mdes/internal/machines"
	"mdes/internal/opt"
	"mdes/internal/resctx"
)

// LoadMachine loads either a built-in machine (by name) or a user source
// file; exactly one of the two must be given.
func LoadMachine(builtin, path string) (*hmdes.Machine, error) {
	switch {
	case builtin != "" && path != "":
		return nil, fmt.Errorf("give either -m or -in, not both")
	case builtin != "":
		return machines.Load(machines.Name(strings.ToLower(builtin)))
	case path != "":
		src, err := os.ReadFile(path)
		if err != nil {
			return nil, err
		}
		return hmdes.Load(path, string(src))
	default:
		return nil, fmt.Errorf("give -m <builtin> (%v) or -in <file.mdes>", machines.All)
	}
}

// FormatCheckerKinds renders the selectable conflict-checker backends with
// one capability row each — what the tools print when -checker names an
// unknown backend, so the valid values and their trade-offs are
// discoverable without reading the source.
func FormatCheckerKinds() string {
	var b strings.Builder
	fmt.Fprintf(&b, "available -checker backends:\n")
	fmt.Fprintf(&b, "  %-10s %-8s %s\n", "name", "release", "probing")
	for _, k := range resctx.Kinds() {
		release, probing := "yes", "random-access"
		if k == resctx.KindAutomaton {
			release, probing = "no", "monotonic-only"
		}
		fmt.Fprintf(&b, "  %-10s %-8s %s\n", k, release, probing)
	}
	return b.String()
}

// ParseForm parses a representation-form flag.
func ParseForm(s string) (lowlevel.Form, error) {
	switch strings.ToLower(s) {
	case "or":
		return lowlevel.FormOR, nil
	case "andor", "and/or", "and-or":
		return lowlevel.FormAndOr, nil
	}
	return 0, fmt.Errorf("unknown form %q (or | andor)", s)
}

// ParseLevel parses an optimization-level flag.
func ParseLevel(s string) (opt.Level, error) {
	switch strings.ToLower(s) {
	case "none", "0":
		return opt.LevelNone, nil
	case "redundancy", "1":
		return opt.LevelRedundancy, nil
	case "bit-vector", "bitvector", "2":
		return opt.LevelBitVector, nil
	case "time-shift", "timeshift", "3":
		return opt.LevelTimeShift, nil
	case "full", "4":
		return opt.LevelFull, nil
	}
	return 0, fmt.Errorf("unknown level %q (none | redundancy | bit-vector | time-shift | full)", s)
}

// ParseDirection parses a shift-direction flag.
func ParseDirection(s string) (opt.Direction, error) {
	switch strings.ToLower(s) {
	case "forward", "f":
		return opt.Forward, nil
	case "backward", "b":
		return opt.Backward, nil
	}
	return 0, fmt.Errorf("unknown direction %q (forward | backward)", s)
}

// DumpCompiledClass prints one class of the compiled structure, with
// resource names resolved via the analyzed machine.
func DumpCompiledClass(w io.Writer, ll *lowlevel.MDES, class string, m *hmdes.Machine) {
	idx, ok := ll.ClassIndex[class]
	if !ok {
		fmt.Fprintf(w, "no class %q\n", class)
		return
	}
	sub := &lowlevel.MDES{
		ResourceNames: ll.ResourceNames,
		Constraints:   []*lowlevel.Constraint{ll.Constraints[idx]},
	}
	DumpCompiled(w, sub)
}

// DumpCompiled prints the compiled constraint structure, class by class.
func DumpCompiled(w io.Writer, ll *lowlevel.MDES) {
	for _, c := range ll.Constraints {
		fmt.Fprintf(w, "class %s: %d tree(s), %d expanded option(s)\n", c.Name, len(c.Trees), c.OptionCount())
		for _, t := range c.Trees {
			fmt.Fprintf(w, "  tree %s (id %d, shared by %d): %d option(s)\n", t.Name, t.ID, t.SharedBy, len(t.Options))
			for oi, o := range t.Options {
				fmt.Fprintf(w, "    option %d:", oi+1)
				if o.Masks != nil {
					for _, m := range o.Masks {
						fmt.Fprintf(w, " [t=%d w=%d mask=%#x]", m.Time, m.Word, m.Mask)
					}
				} else {
					for _, u := range o.Usages {
						fmt.Fprintf(w, " %s@%d", ll.ResourceNames[u.Res], u.Time)
					}
				}
				fmt.Fprintln(w)
			}
		}
	}
}
