// Command mdtrace records scheduling runs as versioned, content-addressed
// binary traces and replays them, asserting byte-identical schedules — the
// reproducibility half of the observability layer (the flight recorder
// names anomalous blocks; a trace makes the run they came from a portable,
// verifiable artifact).
//
// Usage:
//
//	mdtrace record -machine k5 -checker probeplan -o k5.mdtr
//	mdtrace dump k5.mdtr
//	mdtrace dump -jsonl k5.mdtr > k5.jsonl        # per-attempt trace, one line per block
//	mdtrace replay k5.mdtr
//	mdtrace replay -checker automaton k5.mdtr   # cross-backend equivalence
//	mdtrace diff a.mdtr b.mdtr
package main

import (
	"fmt"
	"os"

	"mdes/internal/tools"
)

func main() {
	if err := tools.RunMdtrace(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "mdtrace:", err)
		os.Exit(1)
	}
}
