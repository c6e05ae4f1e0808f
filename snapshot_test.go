package mdes_test

import (
	"fmt"
	"strings"
	"testing"

	"mdes"
)

// panicMessage runs fn and returns what it panicked with, or "" if it
// returned normally.
func panicMessage(fn func()) (msg string) {
	defer func() {
		if r := recover(); r != nil {
			msg = fmt.Sprint(r)
		}
	}()
	fn()
	return ""
}

// A scheduler or query probes a plan compiled from its description, a
// snapshot. Constructing one freezes the description, so a later Optimize
// panics instead of leaving the plan probing stale spans.
func TestOptimizeAfterSessionPanics(t *testing.T) {
	machine, err := mdes.Builtin(mdes.K5)
	if err != nil {
		t.Fatal(err)
	}
	for name, open := range map[string]func(*mdes.Compiled){
		"NewScheduler": func(c *mdes.Compiled) { mdes.NewScheduler(c) },
		"NewQuery":     func(c *mdes.Compiled) { mdes.NewQuery(c) },
	} {
		compiled := mdes.Compile(machine, mdes.FormAndOr)
		open(compiled)
		if !compiled.Frozen() {
			t.Fatalf("%s did not freeze the description", name)
		}
		msg := panicMessage(func() { mdes.Optimize(compiled, mdes.LevelFull) })
		if !strings.Contains(msg, "frozen") {
			t.Fatalf("Optimize after %s: panic %q, want the frozen-description panic", name, msg)
		}
	}
}

// A hand-assembled description whose constraint carries a stale Index
// cannot be planned: every entry point fails with the planner's message
// rather than scheduling through another constraint's spans.
func TestStaleConstraintIndexFailsWithPlannerMessage(t *testing.T) {
	machine, err := mdes.Builtin(mdes.SuperSPARC)
	if err != nil {
		t.Fatal(err)
	}
	const want = "probeplan: constraint 1 "
	stale := func() *mdes.Compiled {
		c := mdes.Compile(machine, mdes.FormAndOr)
		c.Constraints[1].Index = 0
		return c
	}
	if _, err := mdes.NewEngine(stale()); err == nil || !strings.Contains(err.Error(), want) {
		t.Fatalf("NewEngine: err = %v, want the planner's %q", err, want)
	}
	for name, open := range map[string]func(*mdes.Compiled){
		"NewScheduler": func(c *mdes.Compiled) { mdes.NewScheduler(c) },
		"NewQuery":     func(c *mdes.Compiled) { mdes.NewQuery(c) },
	} {
		if msg := panicMessage(func() { open(stale()) }); !strings.Contains(msg, want) {
			t.Fatalf("%s: panic %q, want the planner's %q", name, msg, want)
		}
	}
}
