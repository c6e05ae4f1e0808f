package tools

import (
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"mdes/internal/experiments"
	"mdes/internal/lowlevel"
	"mdes/internal/obs/profile"
	"mdes/internal/trace"
)

// tuneTrace records a small K5 trace at -level time-shift (no static §8
// ordering, so the profile-guided reorder has headroom) and returns its
// path.
func tuneTrace(t *testing.T, dir string) string {
	t.Helper()
	tr := filepath.Join(dir, "k5.mdtr")
	runTool(t, mdtrace, "record",
		"-machine", "k5", "-level", "time-shift",
		"-ops", "4000", "-o", tr)
	return tr
}

func TestTuneAcceptsAndIsDeterministic(t *testing.T) {
	dir := t.TempDir()
	tr := tuneTrace(t, dir)

	tune := func(outDir string) string {
		return runTool(t, mdreport, "-tune",
			"-trace", tr, "-level", "time-shift",
			"-tune-out", outDir, "-tune-min-gain", "5")
	}
	out1 := tune(filepath.Join(dir, "a"))
	for _, want := range []string{
		"profiled baseline:", "byte-identical", "profile/reorder",
		"probe work:", "ACCEPTED",
	} {
		if !strings.Contains(out1, want) {
			t.Errorf("missing %q in:\n%s", want, out1)
		}
	}
	out2 := tune(filepath.Join(dir, "b"))

	// Determinism: same trace + same seed => byte-identical tuned layout
	// (same fingerprint in the name, same encoded bytes).
	readTuned := func(outDir string) (string, []byte) {
		t.Helper()
		matches, err := filepath.Glob(filepath.Join(outDir, "TUNED_k5_*.mdar"))
		if err != nil || len(matches) != 1 {
			t.Fatalf("TUNED artifacts in %s: %v (err %v)", outDir, matches, err)
		}
		data, err := os.ReadFile(matches[0])
		if err != nil {
			t.Fatal(err)
		}
		// The artifact is an arena whose header carries the fingerprint
		// in its name.
		a, err := lowlevel.OpenArena(data)
		if err != nil {
			t.Fatalf("TUNED artifact does not open: %v", err)
		}
		fp, err := a.FrozenMDES().Fingerprint()
		if err != nil || !strings.Contains(filepath.Base(matches[0]), fp) {
			t.Fatalf("TUNED artifact %s has fingerprint %s (err %v)", matches[0], fp, err)
		}
		return filepath.Base(matches[0]), data
	}
	nameA, bytesA := readTuned(filepath.Join(dir, "a"))
	nameB, bytesB := readTuned(filepath.Join(dir, "b"))
	if nameA != nameB {
		t.Fatalf("tuned fingerprints differ across identical runs: %s vs %s", nameA, nameB)
	}
	if !bytes.Equal(bytesA, bytesB) {
		t.Fatalf("tuned encodings differ across identical runs (%d vs %d bytes)", len(bytesA), len(bytesB))
	}
	_ = out2

	// The profile artifact decodes and is keyed to the trace's workload.
	profs, err := filepath.Glob(filepath.Join(dir, "a", "PROFILE_k5_*.mdpf"))
	if err != nil || len(profs) != 1 {
		t.Fatalf("PROFILE artifacts: %v (err %v)", profs, err)
	}
	data, err := os.ReadFile(profs[0])
	if err != nil {
		t.Fatal(err)
	}
	snap, addr, err := profile.Decode(data)
	if err != nil {
		t.Fatalf("profile artifact does not decode: %v", err)
	}
	if !strings.EqualFold(snap.Meta.Machine, "k5") || !strings.Contains(snap.Meta.Workload, "seeded ops=4000") {
		t.Fatalf("profile meta = %+v", snap.Meta)
	}
	if !strings.Contains(out1, addr) {
		t.Fatalf("content address %s not reported in:\n%s", addr, out1)
	}
}

func TestTuneRejectsBelowMinGain(t *testing.T) {
	dir := t.TempDir()
	tr := tuneTrace(t, dir)
	var buf bytes.Buffer
	err := RunMDReport([]string{"-tune",
		"-trace", tr, "-level", "time-shift", "-tune-min-gain", "95",
		"-tune-out", filepath.Join(dir, "out")}, &buf)
	if err == nil || !strings.Contains(err.Error(), "REJECTED") {
		t.Fatalf("95%% min gain accepted: err=%v\n%s", err, buf.String())
	}
	// Rejection must not leave artifacts behind.
	if matches, _ := filepath.Glob(filepath.Join(dir, "out", "TUNED_*")); len(matches) != 0 {
		t.Fatalf("rejected run wrote artifacts: %v", matches)
	}
}

// writeBench writes one BENCH_*.json record the way schedbench -benchjson
// does.
func writeBench(t *testing.T, dir string, rec experiments.BenchRecord) {
	t.Helper()
	rec.Schema = experiments.BenchSchema
	data, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	name := "BENCH_" + rec.Machine + "_" + rec.Checker + ".json"
	if err := os.WriteFile(filepath.Join(dir, name), data, 0o644); err != nil {
		t.Fatal(err)
	}
}

func TestBenchCompareTrajectories(t *testing.T) {
	oldDir, newDir := t.TempDir(), t.TempDir()
	base := experiments.BenchRecord{
		Machine: "k5", Checker: "probeplan",
		Blocks: 1240, BlocksPerSec: 40000, ChecksPerAttempt: 6.0,
	}
	writeBench(t, oldDir, base)

	// Within tolerance: a bit slower, same checks.
	ok := base
	ok.BlocksPerSec = 30000
	writeBench(t, newDir, ok)
	out := runTool(t, mdreport, "-bench-compare", oldDir, newDir)
	if !strings.Contains(out, "within tolerance") {
		t.Fatalf("in-tolerance compare:\n%s", out)
	}

	// Checks/attempt is deterministic: +10% must fail even inside the
	// generous rate tolerance.
	bad := base
	bad.ChecksPerAttempt = 6.6
	writeBench(t, newDir, bad)
	var buf bytes.Buffer
	err := RunMDReport([]string{"-bench-compare", oldDir, newDir}, &buf)
	if err == nil || !strings.Contains(buf.String(), "BENCH REGRESSION") {
		t.Fatalf("checks regression passed: err=%v\n%s", err, buf.String())
	}

	// A benchmark disappearing from the new trajectory is a violation.
	extra := base
	extra.Checker = "automaton"
	writeBench(t, oldDir, extra)
	writeBench(t, newDir, ok)
	buf.Reset()
	if err := RunMDReport([]string{"-bench-compare", oldDir, newDir}, &buf); err == nil {
		t.Fatalf("missing benchmark passed:\n%s", buf.String())
	}
}

func TestSeedBenchBudgetsThenCompare(t *testing.T) {
	dir := t.TempDir()
	writeBench(t, dir, experiments.BenchRecord{
		Machine: "k5", Checker: "probeplan",
		Blocks: 1240, BlocksPerSec: 40000, ChecksPerAttempt: 6.0,
	})
	budgets := filepath.Join(dir, "bench_budgets.json")
	out := runTool(t, mdreport, "-seed-bench-budgets", budgets, dir)
	if !strings.Contains(out, "seeded") {
		t.Fatalf("seed output:\n%s", out)
	}

	// The measurement that seeded the budgets passes against them.
	out = runTool(t, mdreport, "-bench-compare", budgets, dir)
	if !strings.Contains(out, "within") {
		t.Fatalf("seeded compare:\n%s", out)
	}

	// A large slowdown beyond the headroom fails.
	slow := experiments.BenchRecord{
		Machine: "k5", Checker: "probeplan",
		Blocks: 1240, BlocksPerSec: 4000, ChecksPerAttempt: 6.0,
	}
	newDir := t.TempDir()
	writeBench(t, newDir, slow)
	var buf bytes.Buffer
	err := RunMDReport([]string{"-bench-compare", budgets, newDir}, &buf)
	if err == nil || !strings.Contains(buf.String(), "BENCH REGRESSION") {
		t.Fatalf("10x slowdown passed budgets: err=%v\n%s", err, buf.String())
	}
}

func TestBenchCompareArgErrors(t *testing.T) {
	var buf bytes.Buffer
	if err := RunMDReport([]string{"-bench-compare", "one-arg-only"}, &buf); err == nil {
		t.Error("one positional arg accepted")
	}
	if err := RunMDReport([]string{"-seed-bench-budgets", "out.json"}, &buf); err == nil {
		t.Error("missing records arg accepted")
	}
}

// TestReplayRefusesStaleFingerprint replays a K5 recording made while
// fingerprints were FNV-64a over the retired v3 encoding: its machine hash
// no longer matches the description, and both replaying tools refuse it
// with the one sentinel error.
func TestReplayRefusesStaleFingerprint(t *testing.T) {
	tr := filepath.Join("testdata", "k5-fnv-fingerprint.mdtr")
	var buf bytes.Buffer
	err := RunMdtrace([]string{"replay", tr}, &buf)
	if !errors.Is(err, trace.ErrHashMismatch) {
		t.Fatalf("mdtrace replay: err=%v, want trace.ErrHashMismatch", err)
	}
	err = RunMDReport([]string{"-tune", "-trace", tr, "-tune-out", t.TempDir()}, &buf)
	if !errors.Is(err, trace.ErrHashMismatch) {
		t.Fatalf("mdreport -tune: err=%v, want trace.ErrHashMismatch", err)
	}
}

// The tuning loop refuses a workload outside the bounds a recording may
// ask replay to build, whether its flags ask for it or a recording does.
func TestTuneRefusesOversizedWorkload(t *testing.T) {
	var buf bytes.Buffer
	for _, args := range [][]string{
		{"-ops", "1099511627776"},
		{"-shards", "1099511627776"},
		{"-trace", "../trace/testdata/seeded-2e40-shards.mdtr"},
		{"-trace", "../trace/testdata/inline-2e40-register.mdtr"},
	} {
		err := RunMDReport(append([]string{"-tune", "-tune-out", t.TempDir()}, args...), &buf)
		if err == nil || !strings.Contains(err.Error(), "outside") {
			t.Errorf("mdreport -tune %v: err = %v", args, err)
		}
	}
}
