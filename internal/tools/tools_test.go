package tools

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"mdes/internal/trace"
)

func runTool(t *testing.T, fn func([]string, *bytes.Buffer) error, args ...string) string {
	t.Helper()
	var buf bytes.Buffer
	if err := fn(args, &buf); err != nil {
		t.Fatalf("args %v: %v\noutput:\n%s", args, err, buf.String())
	}
	return buf.String()
}

func mdc(args []string, buf *bytes.Buffer) error        { return RunMDC(args, buf) }
func mdinfo(args []string, buf *bytes.Buffer) error     { return RunMDInfo(args, buf) }
func schedbench(args []string, buf *bytes.Buffer) error { return RunSchedbench(args, buf) }
func mdviz(args []string, buf *bytes.Buffer) error      { return RunMDViz(args, buf) }

func TestMDCBasic(t *testing.T) {
	out := runTool(t, mdc, "-m", "supersparc", "-form", "andor", "-level", "full")
	for _, want := range []string{"machine SuperSPARC", "eliminate-redundant", "size reduction"} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q in:\n%s", want, out)
		}
	}
}

func TestMDCEmit(t *testing.T) {
	out := runTool(t, mdc, "-m", "pa7100", "-emit")
	if !strings.Contains(out, "machine PA7100 {") || !strings.Contains(out, "bypass FMUL to FADD") {
		t.Fatalf("emit output:\n%s", out)
	}
}

func TestMDCDump(t *testing.T) {
	out := runTool(t, mdc, "-m", "pa7100", "-level", "none", "-dump")
	if !strings.Contains(out, "class mem") {
		t.Fatalf("dump output:\n%s", out)
	}
}

func TestMDCFactorAndOutput(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "k5.mdar")
	out := runTool(t, mdc, "-m", "k5", "-form", "or", "-level", "full", "-factor", "-emit-arena", path)
	if !strings.Contains(out, "treesFactored=") || !strings.Contains(out, "verified") {
		t.Fatalf("factor/output missing:\n%s", out)
	}
	if st, err := os.Stat(path); err != nil || st.Size() == 0 {
		t.Fatalf("binary not written: %v", err)
	}
}

func TestMDCErrors(t *testing.T) {
	var buf bytes.Buffer
	if err := RunMDC([]string{"-m", "vax"}, &buf); err == nil {
		t.Fatalf("unknown machine accepted")
	}
	if err := RunMDC([]string{"-m", "k5", "-form", "weird"}, &buf); err == nil {
		t.Fatalf("bad form accepted")
	}
	if err := RunMDC([]string{"-m", "k5", "-level", "11"}, &buf); err == nil {
		t.Fatalf("bad level accepted")
	}
	if err := RunMDC([]string{"-m", "k5", "-dir", "sideways"}, &buf); err == nil {
		t.Fatalf("bad direction accepted")
	}
	if err := RunMDC([]string{"-bogusflag"}, &buf); err == nil {
		t.Fatalf("bad flag accepted")
	}
}

func TestMDInfoStatic(t *testing.T) {
	out := runTool(t, mdinfo, "-m", "supersparc")
	for _, want := range []string{"machine SuperSPARC", "Decoder", "ialu1", "ialu1_casc"} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q in:\n%s", want, out)
		}
	}
}

func TestMDInfoSched(t *testing.T) {
	out := runTool(t, mdinfo, "-m", "pa7100", "-sched", "-ops", "2000")
	if !strings.Contains(out, "% Attempts") || !strings.Contains(out, "attempts/op") {
		t.Fatalf("sched output:\n%s", out)
	}
}

func TestMDInfoCustomFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "m.mdes")
	src := `machine F { resource R; class c { use R @ 0; } operation X class c; }`
	if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	out := runTool(t, mdinfo, "-in", path)
	if !strings.Contains(out, "machine F") {
		t.Fatalf("output:\n%s", out)
	}
}

func TestMDInfoErrors(t *testing.T) {
	var buf bytes.Buffer
	if err := RunMDInfo([]string{"-in", "/nonexistent.mdes"}, &buf); err == nil {
		t.Fatalf("missing file accepted")
	}
	if err := RunMDInfo([]string{"-in", "x", "-sched"}, &buf); err == nil {
		t.Fatalf("-sched with -in accepted")
	}
}

func TestSchedbenchSingleTables(t *testing.T) {
	for _, table := range []string{"1", "5", "6", "8", "14"} {
		out := runTool(t, schedbench, "-table", table, "-ops", "1500")
		if !strings.Contains(out, "Table "+table) {
			t.Errorf("table %s output:\n%s", table, out)
		}
	}
}

func TestSchedbenchFig2(t *testing.T) {
	out := runTool(t, schedbench, "-fig2", "-ops", "1500")
	if !strings.Contains(out, "Figure 2") {
		t.Fatalf("fig2 output:\n%s", out)
	}
}

func TestSchedbenchBadTable(t *testing.T) {
	var buf bytes.Buffer
	if err := RunSchedbench([]string{"-table", "99"}, &buf); err == nil {
		t.Fatalf("table 99 accepted")
	}
}

func TestMDVizForms(t *testing.T) {
	or := runTool(t, mdviz, "-m", "supersparc", "-class", "load", "-form", "or")
	if !strings.Contains(or, "Option 6:") {
		t.Fatalf("or render:\n%s", or)
	}
	ao := runTool(t, mdviz, "-m", "supersparc", "-class", "load", "-form", "andor")
	if !strings.Contains(ao, "AND of") {
		t.Fatalf("andor render:\n%s", ao)
	}
}

func TestMDVizShiftAndSort(t *testing.T) {
	out := runTool(t, mdviz, "-m", "supersparc", "-class", "load", "-form", "or", "-shift")
	if !strings.Contains(out, "class load") {
		t.Fatalf("shift render:\n%s", out)
	}
	out = runTool(t, mdviz, "-m", "supersparc", "-class", "ialu2", "-form", "andor", "-sort")
	if !strings.Contains(out, "class ialu2") {
		t.Fatalf("sort render:\n%s", out)
	}
}

func TestMDVizShare(t *testing.T) {
	out := runTool(t, mdviz, "-m", "supersparc", "-share")
	if !strings.Contains(out, "AnyDecoder") || !strings.Contains(out, "shared by") {
		t.Fatalf("share output:\n%s", out)
	}
}

func TestMDVizErrors(t *testing.T) {
	var buf bytes.Buffer
	if err := RunMDViz([]string{"-m", "supersparc"}, &buf); err == nil {
		t.Fatalf("missing -class accepted")
	}
	if err := RunMDViz([]string{"-m", "supersparc", "-class", "nope"}, &buf); err == nil {
		t.Fatalf("unknown class accepted")
	}
}

func TestSchedbenchExtensions(t *testing.T) {
	out := runTool(t, schedbench, "-ext", "-ops", "1500")
	for _, want := range []string{"factorization", "automaton", "Eichenberger", "modulo"} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q in extensions report:\n%s", want, out)
		}
	}
}

// The default invocation regenerates everything (small workload).
func TestSchedbenchFullRun(t *testing.T) {
	if testing.Short() {
		t.Skip("full harness run")
	}
	out := runTool(t, schedbench, "-ops", "1200")
	for n := 1; n <= 15; n++ {
		if !strings.Contains(out, "Table "+itoa(n)) {
			t.Errorf("missing Table %d", n)
		}
	}
	if !strings.Contains(out, "Figure 2") {
		t.Errorf("missing Figure 2")
	}
}

func itoa(n int) string {
	if n >= 10 {
		return string(rune('0'+n/10)) + string(rune('0'+n%10))
	}
	return string(rune('0' + n))
}

func TestMDVizCustomFileAndBadForm(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "m.mdes")
	src := `machine V { resource R[2]; class c { one_of R[0..1] @ 0; } operation X class c; }`
	if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	out := runTool(t, mdviz, "-in", path, "-class", "c", "-form", "or")
	if !strings.Contains(out, "Option 2:") {
		t.Fatalf("custom render:\n%s", out)
	}
	var buf bytes.Buffer
	if err := RunMDViz([]string{"-in", path, "-class", "c", "-form", "banana"}, &buf); err == nil {
		t.Fatalf("bad form accepted")
	}
	if err := RunMDViz([]string{"-m", "vax"}, &buf); err == nil {
		t.Fatalf("unknown machine accepted")
	}
}

func TestSchedbenchObserve(t *testing.T) {
	out := runTool(t, schedbench,
		"-machine", "k5", "-ops", "1700", "-metrics", "127.0.0.1:0", "-report")
	for _, want := range []string{
		"serving http://127.0.0.1:",
		"Per-phase scheduling metrics",
		"Conflicts by blocking resource",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q in observe output:\n%s", want, out)
		}
	}
}

func TestMDInfoStats(t *testing.T) {
	out := runTool(t, mdinfo, "-m", "k5", "-stats", "-ops", "1500")
	for _, want := range []string{"Per-phase scheduling metrics", "Hottest opcode classes", "rop1_alu"} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q in -stats output:\n%s", want, out)
		}
	}
}

func mdreport(args []string, buf *bytes.Buffer) error { return RunMDReport(args, buf) }

func TestMDReportSingleMachine(t *testing.T) {
	out := runTool(t, mdreport, "-m", "k5", "-ops", "2000")
	for _, want := range []string{
		"mdreport: k5", "Translator ledger", "Size grid",
		"Table 5", "Table 7", "Table 8", "Table 9", "Table 10", "Table 11", "Table 12",
		"budget quantities",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q in:\n%s", want, out)
		}
	}
}

func TestMDReportJSONAndArtifacts(t *testing.T) {
	dir := t.TempDir()
	out := runTool(t, mdreport, "-m", "pa7100", "-ops", "2000", "-json", "-out", dir)
	if !strings.Contains(out, `"machine": "pa7100"`) || !strings.Contains(out, `"ledgers"`) {
		t.Fatalf("JSON output:\n%s", out)
	}
	if st, err := os.Stat(filepath.Join(dir, "pa7100.json")); err != nil || st.Size() == 0 {
		t.Fatalf("artifact not written: %v", err)
	}
}

func TestMDReportBudgetGate(t *testing.T) {
	dir := t.TempDir()
	budgets := filepath.Join(dir, "budgets.json")

	// Seed budgets from a measurement, then check against them: passes.
	runTool(t, mdreport, "-m", "k5", "-ops", "2000", "-seed-budgets", budgets)
	out := runTool(t, mdreport, "-m", "k5", "-ops", "2000", "-check", budgets)
	if !strings.Contains(out, "within") {
		t.Fatalf("seeded check output:\n%s", out)
	}

	// Inject a regression: a budget below the measurement must fail.
	if err := os.WriteFile(budgets, []byte(`{"k5": {"max_bytes": 1}}`), 0o644); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	err := RunMDReport([]string{"-m", "k5", "-ops", "2000", "-check", budgets}, &buf)
	if err == nil || !strings.Contains(err.Error(), "budget violation") {
		t.Fatalf("tightened budget did not fail: err=%v\n%s", err, buf.String())
	}
	if !strings.Contains(buf.String(), "BUDGET EXCEEDED") {
		t.Fatalf("no violation line in:\n%s", buf.String())
	}
}

func TestMDReportSourceFile(t *testing.T) {
	// Non-builtin machines get the size grid and ledgers but no
	// scheduling tables (the deterministic workload is builtin-keyed).
	dir := t.TempDir()
	src := filepath.Join(dir, "tiny.mdes")
	tiny := `machine F { resource R; class c { use R @ 0; } operation X class c; }`
	if err := os.WriteFile(src, []byte(tiny), 0o644); err != nil {
		t.Fatal(err)
	}
	out := runTool(t, mdreport, "-in", src)
	if !strings.Contains(out, "mdreport: tiny (builtin=false") ||
		!strings.Contains(out, "Size grid") {
		t.Fatalf("source-file report:\n%s", out)
	}
	if strings.Contains(out, "Table 5") {
		t.Fatalf("non-builtin report has scheduling tables:\n%s", out)
	}
}

func TestMDInfoOptLedger(t *testing.T) {
	out := runTool(t, mdinfo, "-m", "k5", "-opt", "full")
	if !strings.Contains(out, "Translator ledger") || !strings.Contains(out, "redundancy/eliminate-redundant") {
		t.Fatalf("mdinfo -opt output:\n%s", out)
	}
}

func TestSchedbenchReportHasTranslatorSection(t *testing.T) {
	out := runTool(t, schedbench, "-machine", "k5", "-ops", "2000", "-report")
	if !strings.Contains(out, "Translator ledger") {
		t.Fatalf("schedbench -report lacks translator section:\n%s", out)
	}
}

func TestSchedbenchFlight(t *testing.T) {
	dir := t.TempDir()
	dump := filepath.Join(dir, "flight.json")
	out := runTool(t, schedbench, "-machine", "k5", "-ops", "1700", "-flightdump", dump)
	if !strings.Contains(out, "flight recorder:") || !strings.Contains(out, "blocks merged") {
		t.Errorf("missing flight summary in output:\n%s", out)
	}
	data, err := os.ReadFile(dump)
	if err != nil {
		t.Fatal(err)
	}
	var snap struct {
		Machine     string `json:"machine"`
		MachineHash string `json:"machine_hash"`
		Blocks      int64  `json:"blocks"`
		Quantiles   []struct {
			Phase string  `json:"phase"`
			P999  float64 `json:"p999"`
		} `json:"quantiles"`
	}
	if err := json.Unmarshal(data, &snap); err != nil {
		t.Fatalf("flight dump does not parse: %v\n%s", err, data)
	}
	if snap.Machine != "K5" || len(snap.MachineHash) != 16 {
		t.Errorf("dump meta = %q / %q", snap.Machine, snap.MachineHash)
	}
	if snap.Blocks < 100 {
		t.Errorf("flight merged %d blocks, want >= 100 at -ops 1700", snap.Blocks)
	}
	if len(snap.Quantiles) == 0 {
		t.Error("flight dump has no quantile summaries")
	}
}

func TestSchedbenchBenchJSONStamps(t *testing.T) {
	if testing.Short() {
		t.Skip("benchjson runs every machine x checker")
	}
	dir := t.TempDir()
	runTool(t, schedbench, "-ops", "400", "-benchjson", dir)
	files, err := filepath.Glob(filepath.Join(dir, "BENCH_*.json"))
	if err != nil || len(files) == 0 {
		t.Fatalf("no BENCH artifacts written (err %v)", err)
	}
	data, err := os.ReadFile(files[0])
	if err != nil {
		t.Fatal(err)
	}
	var art struct {
		Schema      string `json:"schema"`
		MachineHash string `json:"machine_hash"`
		Commit      string `json:"commit"`
		GeneratedAt string `json:"generated_at"`
		Machine     string `json:"machine"`
	}
	if err := json.Unmarshal(data, &art); err != nil {
		t.Fatalf("%s does not parse: %v", files[0], err)
	}
	if art.Schema != "mdes-bench/v2" {
		t.Errorf("schema = %q", art.Schema)
	}
	if len(art.MachineHash) != 16 {
		t.Errorf("machine_hash = %q", art.MachineHash)
	}
	if art.Commit == "" {
		t.Error("commit stamp empty")
	}
	if _, err := time.Parse(time.RFC3339, art.GeneratedAt); err != nil {
		t.Errorf("generated_at %q: %v", art.GeneratedAt, err)
	}
}

func mdtrace(args []string, buf *bytes.Buffer) error { return RunMdtrace(args, buf) }

func TestMdtraceRecordDumpReplayDiff(t *testing.T) {
	dir := t.TempDir()
	tr := filepath.Join(dir, "k5.mdtr")
	out := runTool(t, mdtrace, "record",
		"-machine", "k5", "-checker", "automaton", "-ops", "1200", "-o", tr)
	if !strings.Contains(out, "recorded") || !strings.Contains(out, "trace id") {
		t.Fatalf("record output:\n%s", out)
	}

	out = runTool(t, mdtrace, "dump", "-blocks", "2", tr)
	for _, want := range []string{"trace id:", "machine:      k5", "workload:     seeded", "block    0:"} {
		if !strings.Contains(out, want) {
			t.Errorf("dump missing %q:\n%s", want, out)
		}
	}

	out = runTool(t, mdtrace, "replay", tr)
	if !strings.Contains(out, "byte-identically") {
		t.Fatalf("replay output:\n%s", out)
	}

	// Cross-backend replay: a different checker must produce the same
	// schedules, attempts and conflicts (the paper's backends are
	// semantically equivalent; only their own probe work differs).
	out = runTool(t, mdtrace, "replay", "-checker", "probeplan", tr)
	if !strings.Contains(out, "byte-identical schedules") {
		t.Fatalf("cross-backend replay output:\n%s", out)
	}

	out = runTool(t, mdtrace, "diff", tr, tr)
	if !strings.Contains(out, "identical recordings") {
		t.Fatalf("diff output:\n%s", out)
	}

	// A trace of a different workload diffs non-identically and errors.
	tr2 := filepath.Join(dir, "k5b.mdtr")
	runTool(t, mdtrace, "record",
		"-machine", "k5", "-checker", "automaton", "-ops", "1200", "-seed", "7", "-o", tr2)
	var buf bytes.Buffer
	if err := RunMdtrace([]string{"diff", tr, tr2}, &buf); err == nil {
		t.Fatalf("diff of different traces succeeded:\n%s", buf.String())
	}
}

// The retired rumap backend is an unknown -checker value like any other,
// and a trace recorded under it still replays once a live backend is
// named: the recording pins schedules and counters, not the backend.
func TestRetiredRumapChecker(t *testing.T) {
	dir := t.TempDir()
	var buf bytes.Buffer
	err := RunMdtrace([]string{"record", "-machine", "k5", "-checker", "rumap", "-ops", "600", "-o", filepath.Join(dir, "x.mdtr")}, &buf)
	if err == nil || !strings.Contains(err.Error(), "unknown checker backend") {
		t.Fatalf("record -checker rumap: err=%v", err)
	}
	out := runTool(t, schedbench, "-machine", "k5", "-ops", "600", "-report", "-checker", "rumap")
	if !strings.Contains(out, "unknown checker") || !strings.Contains(out, "probeplan") {
		t.Fatalf("schedbench -checker rumap output:\n%s", out)
	}

	tr := filepath.Join(dir, "k5.mdtr")
	runTool(t, mdtrace, "record", "-machine", "k5", "-ops", "600", "-o", tr)
	rec, err := mdtraceReadFile(tr)
	if err != nil {
		t.Fatal(err)
	}
	rec.Meta.Checker = "rumap"
	old := filepath.Join(dir, "k5-rumap.mdtr")
	f, err := os.Create(old)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := trace.Write(f, rec); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	buf.Reset()
	if err := RunMdtrace([]string{"replay", old}, &buf); err == nil || !strings.Contains(err.Error(), "unknown checker backend") {
		t.Fatalf("replay of a rumap trace without -checker: err=%v", err)
	}
	out = runTool(t, mdtrace, "replay", "-checker", "probeplan", old)
	if !strings.Contains(out, "byte-identical schedules") {
		t.Fatalf("replay -checker probeplan of a rumap trace:\n%s", out)
	}
}

func TestMdtraceInlineRecordReplay(t *testing.T) {
	dir := t.TempDir()
	tr := filepath.Join(dir, "ss.mdtr")
	runTool(t, mdtrace, "record",
		"-machine", "supersparc", "-ops", "600", "-inline", "-o", tr)
	out := runTool(t, mdtrace, "dump", tr)
	if !strings.Contains(out, "workload:     inline") {
		t.Fatalf("dump of inline trace:\n%s", out)
	}
	out = runTool(t, mdtrace, "replay", tr)
	if !strings.Contains(out, "byte-identically") {
		t.Fatalf("inline replay output:\n%s", out)
	}
}

// The block trace of a recorded workload: `mdtrace dump -jsonl` prints
// one JSON line per block, in block order, for the ~100 K5 blocks of the
// CI trace artifact.
func TestMdtraceDumpJSONL(t *testing.T) {
	tr := filepath.Join(t.TempDir(), "k5.mdtr")
	runTool(t, mdtrace, "record", "-machine", "k5", "-ops", "1700", "-o", tr)
	rec, err := mdtraceReadFile(tr)
	if err != nil {
		t.Fatal(err)
	}
	out := runTool(t, mdtrace, "dump", "-jsonl", tr)
	lines := strings.Split(strings.TrimSuffix(out, "\n"), "\n")
	if len(lines) < 100 || len(lines) != len(rec.Outcomes) {
		t.Fatalf("dump -jsonl printed %d lines for %d recorded blocks, want one per block and >= 100 at -ops 1700", len(lines), len(rec.Outcomes))
	}
	for i, line := range lines {
		var r struct {
			Block  int64 `json:"block"`
			Length int   `json:"length"`
		}
		if err := json.Unmarshal([]byte(line), &r); err != nil {
			t.Fatalf("line %d does not parse: %v", i, err)
		}
		if r.Block != int64(i) || r.Length != rec.Outcomes[i].Length {
			t.Fatalf("line %d is block %d of length %d, recorded length %d", i, r.Block, r.Length, rec.Outcomes[i].Length)
		}
	}
}

// dump -jsonl refuses a recording of another description, and fails when
// the replay diverges from the recording.
func TestMdtraceDumpJSONLRefuses(t *testing.T) {
	dir := t.TempDir()
	tr := filepath.Join(dir, "k5.mdtr")
	runTool(t, mdtrace, "record", "-machine", "k5", "-ops", "600", "-o", tr)
	rec, err := mdtraceReadFile(tr)
	if err != nil {
		t.Fatal(err)
	}
	write := func(name string, r trace.Recording) string {
		path := filepath.Join(dir, name)
		data, _, err := trace.Encode(&r)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, data, 0o666); err != nil {
			t.Fatal(err)
		}
		return path
	}
	stale := *rec
	stale.Meta.MachineHash = "0123456789abcdef"
	diverged := *rec
	diverged.Outcomes = append([]trace.Outcome(nil), rec.Outcomes...)
	diverged.Outcomes[3].Counters.Attempts++
	for _, c := range []struct{ path, want string }{
		{write("stale.mdtr", stale), "hash mismatch"},
		{write("diverged.mdtr", diverged), fmt.Sprintf("1 of %d blocks diverged", len(rec.Outcomes))},
	} {
		var buf bytes.Buffer
		err := RunMdtrace([]string{"dump", "-jsonl", c.path}, &buf)
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("dump -jsonl %s: err = %v, want %q", filepath.Base(c.path), err, c.want)
		}
	}
}

func TestMdtraceErrors(t *testing.T) {
	var buf bytes.Buffer
	if err := RunMdtrace(nil, &buf); err == nil {
		t.Error("no command succeeded")
	}
	if err := RunMdtrace([]string{"bogus"}, &buf); err == nil {
		t.Error("unknown command succeeded")
	}
	if err := RunMdtrace([]string{"record"}, &buf); err == nil {
		t.Error("record without -o succeeded")
	}
	if err := RunMdtrace([]string{"replay", "/nonexistent.mdtr"}, &buf); err == nil {
		t.Error("replay of missing file succeeded")
	}
	// A workload outside the bounds a recording may ask replay to build
	// is refused before anything is generated, whether flags or a
	// recording ask for it.
	out := filepath.Join(t.TempDir(), "x.mdtr")
	for _, args := range [][]string{
		{"record", "-o", out, "-ops", "1099511627776"},
		{"record", "-o", out, "-ops", "0"},
		{"record", "-o", out, "-shards", "1099511627776"},
		{"record", "-o", out, "-shards", "-1"},
		{"record", "-o", out, "-inline", "-shards", "1099511627776"},
		{"replay", "../trace/testdata/seeded-2e40-shards.mdtr"},
		{"replay", "../trace/testdata/inline-2e40-register.mdtr"},
		{"dump", "-jsonl", "../trace/testdata/seeded-2e40-shards.mdtr"},
		{"dump", "-jsonl", "../trace/testdata/inline-2e40-register.mdtr"},
	} {
		if err := RunMdtrace(args, &buf); err == nil || !strings.Contains(err.Error(), "outside") {
			t.Errorf("mdtrace %v: err = %v, want a workload bound violation", args, err)
		}
	}
	// A corrupt file must be rejected by the trailer hash.
	dir := t.TempDir()
	bad := filepath.Join(dir, "bad.mdtr")
	if err := os.WriteFile(bad, []byte("MDTRgarbagegarbage"), 0o666); err != nil {
		t.Fatal(err)
	}
	if err := RunMdtrace([]string{"dump", bad}, &buf); err == nil || !strings.Contains(err.Error(), "trailer hash") {
		t.Errorf("corrupt trace: err = %v", err)
	}
}
