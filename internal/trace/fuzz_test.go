package trace

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"mdes"
	"mdes/internal/ir"
)

// crashers are two small recordings that ask replay to build more than
// any real workload: a seeded spec of 2^40 generator shards, and an
// inline block whose one ADD writes register 2^40. Before Decode bounded
// the workload, both passed it and then ran replay out of memory.
var crashers = []string{"seeded-2e40-shards.mdtr", "inline-2e40-register.mdtr"}

func readTestdata(tb testing.TB, name string) []byte {
	tb.Helper()
	data, err := os.ReadFile(filepath.Join("testdata", name))
	if err != nil {
		tb.Fatal(err)
	}
	return data
}

func TestDecodeRefusesOversizedWorkload(t *testing.T) {
	for _, name := range crashers {
		if _, err := Decode(readTestdata(t, name)); err == nil || !strings.Contains(err.Error(), "outside") {
			t.Errorf("%s: err = %v, want a workload bound violation", name, err)
		}
	}
}

// Decode admits every workload up to its bounds, the paper's largest
// stream among them, and refuses each bound's first violation.
func TestWorkloadBounds(t *testing.T) {
	inline := func(edit func(*ir.Operation)) Workload {
		op := &ir.Operation{Opcode: "ADD", Dests: []int{1}, Srcs: []int{2}}
		edit(op)
		return Workload{Blocks: []*ir.Block{{Ops: []*ir.Operation{op}}}}
	}
	wide := &ir.Block{Ops: make([]*ir.Operation, ir.MaxOpsPerBlock+1)}
	for i := range wide.Ops {
		wide.Ops[i] = &ir.Operation{Opcode: "ADD", ID: i}
	}
	cases := []struct {
		name string
		wl   Workload
		ok   bool
	}{
		{"paper-stream", Workload{Seeded: true, NumOps: 282219, Seed: 1996, Shards: 4}, true},
		{"at-caps", Workload{Seeded: true, NumOps: MaxWorkloadOps, Shards: MaxWorkloadShards}, true},
		{"ops-over", Workload{Seeded: true, NumOps: MaxWorkloadOps + 1, Shards: 4}, false},
		{"no-ops", Workload{Seeded: true, Shards: 4}, false},
		{"shards-over", Workload{Seeded: true, NumOps: 100, Shards: MaxWorkloadShards + 1}, false},
		{"inline", inline(func(*ir.Operation) {}), true},
		{"top-register", inline(func(op *ir.Operation) { op.Dests[0] = ir.MaxRegister - 1 }), true},
		{"register-over", inline(func(op *ir.Operation) { op.Dests[0] = ir.MaxRegister }), false},
		{"negative-register", inline(func(op *ir.Operation) { op.Srcs[0] = -1 }), false},
		{"operands-over", inline(func(op *ir.Operation) { op.Srcs = make([]int, ir.MaxOperands+1) }), false},
		{"empty-opcode", inline(func(op *ir.Operation) { op.Opcode = "" }), false},
		{"opcode-over", inline(func(op *ir.Operation) { op.Opcode = strings.Repeat("X", ir.MaxOpcodeLen+1) }), false},
		{"mem-kind", inline(func(op *ir.Operation) { op.Mem = ir.MemStore + 1 }), false},
		{"block-over", Workload{Blocks: []*ir.Block{wide}}, false},
	}
	for _, c := range cases {
		rec := testRecording()
		rec.Workload = c.wl
		data, _, err := Encode(rec)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := Decode(data); (err == nil) != c.ok {
			t.Errorf("%s: Decode err = %v, want accepted=%v", c.name, err, c.ok)
		}
	}
}

// FuzzTraceDecode holds Decode to its contract on arbitrary input. The
// target re-stamps the trailer hash over the fuzzed body, so mutations
// reach the parser instead of stopping at the hash check. Decode never
// panics, every recording it accepts is within the workload bounds, and
// encoding an accepted recording reaches a fixpoint after one round.
func FuzzTraceDecode(f *testing.F) {
	for _, rec := range fuzzSeeds(f) {
		data, _, err := Encode(rec)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	for _, name := range crashers {
		f.Add(readTestdata(f, name))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) >= 8 {
			data = append([]byte(nil), data...)
			rehash(data)
		}
		rec, err := Decode(data)
		if err != nil {
			return
		}
		checkBounds(t, &rec.Workload)
		enc, _, err := Encode(rec)
		if err != nil {
			t.Fatal(err)
		}
		again, err := Decode(enc)
		if err != nil {
			t.Fatalf("re-decoding an accepted recording: %v", err)
		}
		enc2, _, err := Encode(again)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(enc, enc2) {
			t.Fatal("encoding a decoded recording is not a fixpoint after one round")
		}
	})
}

// checkBounds fails unless an accepted workload is within the bounds
// Decode promises: the seeded caps, or the per-block bounds of internal/ir.
func checkBounds(t *testing.T, wl *Workload) {
	t.Helper()
	if wl.Seeded {
		if wl.NumOps < 1 || wl.NumOps > MaxWorkloadOps || wl.Shards < 0 || wl.Shards > MaxWorkloadShards {
			t.Fatalf("accepted seeded workload of %d ops in %d shards", wl.NumOps, wl.Shards)
		}
		return
	}
	for bi, b := range wl.Blocks {
		if len(b.Ops) > ir.MaxOpsPerBlock {
			t.Fatalf("accepted block %d of %d ops", bi, len(b.Ops))
		}
		for _, op := range b.Ops {
			if op.Opcode == "" || len(op.Opcode) > ir.MaxOpcodeLen ||
				len(op.Srcs) > ir.MaxOperands || len(op.Dests) > ir.MaxOperands ||
				op.Mem < ir.MemNone || op.Mem > ir.MemStore {
				t.Fatalf("accepted block %d op %+v", bi, op)
			}
			for _, r := range append(append([]int(nil), op.Srcs...), op.Dests...) {
				if r < 0 || r >= ir.MaxRegister {
					t.Fatalf("accepted block %d op %+v with register %d", bi, op, r)
				}
			}
		}
	}
}

// fuzzSeeds returns small recordings of both workload kinds: the
// hand-built ones of the round-trip tests, and two captured from a K5
// engine — a seeded spec and the same blocks inlined.
func fuzzSeeds(tb testing.TB) []*Recording {
	tb.Helper()
	machine, err := mdes.Builtin(mdes.K5)
	if err != nil {
		tb.Fatal(err)
	}
	compiled := mdes.Compile(machine, mdes.FormAndOr)
	mdes.Optimize(compiled, mdes.LevelFull)
	eng, err := mdes.NewEngine(compiled)
	if err != nil {
		tb.Fatal(err)
	}
	fp, err := compiled.Fingerprint()
	if err != nil {
		tb.Fatal(err)
	}
	meta := Meta{Machine: string(mdes.K5), MachineHash: fp, Form: "AND/OR", Level: "full", Checker: "probeplan"}
	seeded := Workload{Seeded: true, NumOps: 60, Seed: 1996, Shards: 2}
	blocks, err := (&Recording{Meta: meta, Workload: seeded}).Blocks()
	if err != nil {
		tb.Fatal(err)
	}
	seeds := []*Recording{testRecording(), testInlineRecording()}
	for _, wl := range []Workload{seeded, {Blocks: blocks}} {
		rec, err := Capture(context.Background(), eng, meta, wl, 1)
		if err != nil {
			tb.Fatal(err)
		}
		seeds = append(seeds, rec)
	}
	return seeds
}
