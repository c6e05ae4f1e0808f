package cli

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"mdes/internal/lowlevel"
	"mdes/internal/machines"
	"mdes/internal/opt"
)

func TestLoadMachineBuiltin(t *testing.T) {
	m, err := LoadMachine("supersparc", "")
	if err != nil {
		t.Fatal(err)
	}
	if m.Name != "SuperSPARC" {
		t.Fatalf("Name = %q", m.Name)
	}
	// Case-insensitive.
	if _, err := LoadMachine("SuperSPARC", ""); err != nil {
		t.Fatalf("case-insensitive lookup failed: %v", err)
	}
}

func TestLoadMachineFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "m.mdes")
	src := `machine F { resource R; class c { use R @ 0; } operation X class c; }`
	if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	m, err := LoadMachine("", path)
	if err != nil {
		t.Fatal(err)
	}
	if m.Name != "F" {
		t.Fatalf("Name = %q", m.Name)
	}
}

func TestLoadMachineErrors(t *testing.T) {
	if _, err := LoadMachine("", ""); err == nil {
		t.Fatalf("no-args accepted")
	}
	if _, err := LoadMachine("x", "y"); err == nil {
		t.Fatalf("both args accepted")
	}
	if _, err := LoadMachine("vax", ""); err == nil {
		t.Fatalf("unknown builtin accepted")
	}
	if _, err := LoadMachine("", "/nonexistent/file.mdes"); err == nil {
		t.Fatalf("missing file accepted")
	}
}

func TestParseForm(t *testing.T) {
	for s, want := range map[string]lowlevel.Form{
		"or": lowlevel.FormOR, "OR": lowlevel.FormOR,
		"andor": lowlevel.FormAndOr, "and/or": lowlevel.FormAndOr, "and-or": lowlevel.FormAndOr,
	} {
		got, err := ParseForm(s)
		if err != nil || got != want {
			t.Errorf("ParseForm(%q) = %v, %v", s, got, err)
		}
	}
	if _, err := ParseForm("tree"); err == nil {
		t.Fatalf("bad form accepted")
	}
}

func TestParseLevel(t *testing.T) {
	for s, want := range map[string]opt.Level{
		"none": opt.LevelNone, "0": opt.LevelNone,
		"redundancy": opt.LevelRedundancy, "1": opt.LevelRedundancy,
		"bit-vector": opt.LevelBitVector, "bitvector": opt.LevelBitVector, "2": opt.LevelBitVector,
		"time-shift": opt.LevelTimeShift, "3": opt.LevelTimeShift,
		"full": opt.LevelFull, "4": opt.LevelFull,
	} {
		got, err := ParseLevel(s)
		if err != nil || got != want {
			t.Errorf("ParseLevel(%q) = %v, %v", s, got, err)
		}
	}
	if _, err := ParseLevel("max"); err == nil {
		t.Fatalf("bad level accepted")
	}
}

func TestParseDirection(t *testing.T) {
	if d, err := ParseDirection("forward"); err != nil || d != opt.Forward {
		t.Fatalf("forward: %v %v", d, err)
	}
	if d, err := ParseDirection("b"); err != nil || d != opt.Backward {
		t.Fatalf("b: %v %v", d, err)
	}
	if _, err := ParseDirection("sideways"); err == nil {
		t.Fatalf("bad direction accepted")
	}
}

func TestDumpCompiled(t *testing.T) {
	m := machines.MustLoad(machines.PA7100)
	ll := lowlevel.Compile(m, lowlevel.FormAndOr)
	var buf bytes.Buffer
	DumpCompiled(&buf, ll)
	out := buf.String()
	for _, want := range []string{"class ialu", "class mem", "Slot[0]@-1", "IPipe@0"} {
		if !strings.Contains(out, want) {
			t.Errorf("dump missing %q:\n%s", want, out)
		}
	}
	// Packed dump shows masks.
	opt.PackBitVectors(ll)
	buf.Reset()
	DumpCompiled(&buf, ll)
	if !strings.Contains(buf.String(), "mask=") {
		t.Errorf("packed dump missing masks:\n%s", buf.String())
	}
}

func TestDumpCompiledClass(t *testing.T) {
	m := machines.MustLoad(machines.PA7100)
	ll := lowlevel.Compile(m, lowlevel.FormAndOr)
	var buf bytes.Buffer
	DumpCompiledClass(&buf, ll, "branch", m)
	if !strings.Contains(buf.String(), "class branch") {
		t.Errorf("class dump:\n%s", buf.String())
	}
	buf.Reset()
	DumpCompiledClass(&buf, ll, "nope", m)
	if !strings.Contains(buf.String(), "no class") {
		t.Errorf("missing-class dump:\n%s", buf.String())
	}
}

// The backend listing the tools print for an unknown -checker is the
// capability table: what each backend can do.
func TestFormatCheckerKinds(t *testing.T) {
	want := "available -checker backends:\n" +
		"  name       release  probing\n" +
		"  probeplan  yes      random-access\n" +
		"  automaton  no       monotonic-only\n"
	if got := FormatCheckerKinds(); got != want {
		t.Fatalf("listing:\n%s\nwant:\n%s", got, want)
	}
}
