// Command mdc is the MDES compiler: it translates a high-level machine
// description into the low-level representation, runs the optimization
// pipeline, and reports what each transformation did and what the result
// costs in memory.
//
// Usage:
//
//	mdc -m supersparc -form andor -level full
//	mdc -in mymachine.mdes -form or -level time-shift -dir backward
//	mdc -m k5 -form or -level full -emit-arena k5.mdar
//	mdc -m k5 -dump
//	mdc -in mymachine.mdes -emit
package main

import (
	"fmt"
	"os"

	"mdes/internal/tools"
)

func main() {
	if err := tools.RunMDC(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "mdc:", err)
		os.Exit(1)
	}
}
