package mdes_test

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"mdes"
	"mdes/internal/trace"
)

// traceGolden pins the JSONL block trace of one machine × form at
// LevelFull on the default checker, over the workload `mdtrace record
// -ops 1700` regenerates (seed 1996, 4 shards): one line per block, the
// whole stream's length in bytes, and its SHA-256.
type traceGolden struct {
	machine mdes.BuiltinName
	form    mdes.Form
	blocks  int
	bytes   int
	sha256  string
}

var traceGoldens = []traceGolden{
	{mdes.PA7100, mdes.FormOR, 278, 556072, "058d3f249c7bdb084650a64cb36d7b66c3b9cc2075f6c2d8980cf62b65dfeb92"},
	{mdes.PA7100, mdes.FormAndOr, 278, 543990, "eb72bd0e732309f42cff9311ae1e2cf704054252d8636c19f772576a24f5b08c"},
	{mdes.Pentium, mdes.FormOR, 182, 407214, "8572ef124f6758d5a007ca9adfe8c46d77f1a020dd2f2d6de6900f0c66dc0b56"},
	{mdes.Pentium, mdes.FormAndOr, 182, 395289, "8415e878ba91688417ccc9a66f056016cfe5b0b7af9f94b7961ff2e523f1bea9"},
	{mdes.SuperSPARC, mdes.FormOR, 186, 407770, "8101868c5726f57699fc10abf50c2dbdc4a4224a6abeaa35252230484ca0eded"},
	{mdes.SuperSPARC, mdes.FormAndOr, 186, 390950, "541f36664fb0294649b2ba6753d7bd1d6cd151ddea018c79798346695b57b644"},
	{mdes.K5, mdes.FormOR, 116, 261642, "53296548e8b8a1aa7b3b41f3d4f87f9e5b15e14338fd3d464b1625f8aec91353"},
	{mdes.K5, mdes.FormAndOr, 116, 248699, "e5ae65c0b4cd74083ff45acb369f670e16264a0ef2f5bb265ccf933ee9863443"},
}

// The per-attempt JSONL trace — every attempt, its options and chosen
// option, every conflict with its blocking resource and provenance —
// must stay byte-identical for the paper's four machines in both forms.
// The digests were taken from the live tracer the renderer replaced, at
// parallelism 1; the renderer re-derives them from a recording captured
// at parallelism 8.
func TestTraceJSONLGolden(t *testing.T) {
	for _, g := range traceGoldens {
		wl := trace.Workload{Seeded: true, NumOps: 1700, Seed: 1996, Shards: 4}
		compiled, rec := recordTrace(t, g.machine, g.form, wl, 8)
		var buf bytes.Buffer
		if err := trace.Render(&buf, compiled, rec); err != nil {
			t.Fatal(err)
		}
		sum := sha256.Sum256(buf.Bytes())
		lines, got := bytes.Count(buf.Bytes(), []byte("\n")), hex.EncodeToString(sum[:])
		if lines != g.blocks || buf.Len() != g.bytes || got != g.sha256 {
			t.Errorf("%s/%v: %d lines, %d bytes, sha256 %s; pinned %d, %d, %s",
				g.machine, g.form, lines, buf.Len(), got, g.blocks, g.bytes, g.sha256)
		}
	}
}

// recordTrace compiles machine in form at LevelFull and captures an MDTR
// recording of wl through a default engine at the given parallelism,
// returning the (now frozen) description with it.
func recordTrace(t testing.TB, machine mdes.BuiltinName, form mdes.Form, wl trace.Workload, parallelism int) (*mdes.Compiled, *trace.Recording) {
	t.Helper()
	compiled := freshCompiled(t, machine, form, mdes.LevelFull)
	eng, err := mdes.NewEngine(compiled)
	if err != nil {
		t.Fatal(err)
	}
	fp, err := compiled.Fingerprint()
	if err != nil {
		t.Fatal(err)
	}
	meta := trace.Meta{
		Machine:     string(machine),
		MachineHash: fp,
		Form:        form.String(),
		Level:       mdes.LevelFull.String(),
		Checker:     eng.CheckerKind().String(),
	}
	rec, err := trace.Capture(context.Background(), eng, meta, wl, parallelism)
	if err != nil {
		t.Fatal(err)
	}
	return compiled, rec
}
