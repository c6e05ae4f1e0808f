package trace_test

import (
	"context"
	"testing"

	"mdes"
	"mdes/internal/machines"
	"mdes/internal/trace"
	"mdes/internal/workload"
)

// traceEngine compiles a machine and returns the engine plus the trace
// meta that identifies it (same construction path as cmd/mdtrace).
func traceEngine(t *testing.T, name machines.Name, checker string) (*mdes.Engine, trace.Meta) {
	t.Helper()
	m, err := machines.Load(name)
	if err != nil {
		t.Fatal(err)
	}
	kind, err := mdes.ParseCheckerKind(checker)
	if err != nil {
		t.Fatal(err)
	}
	c := mdes.Compile(m, mdes.FormAndOr)
	mdes.Optimize(c, mdes.LevelFull)
	eng, err := mdes.NewEngine(c, mdes.WithChecker(kind))
	if err != nil {
		t.Fatal(err)
	}
	fp, err := c.Fingerprint()
	if err != nil {
		t.Fatal(err)
	}
	return eng, trace.Meta{
		Machine:     string(name),
		MachineHash: fp,
		Form:        mdes.FormAndOr.String(),
		Level:       mdes.LevelFull.String(),
		Checker:     kind.String(),
	}
}

func TestCaptureReplayByteIdentical(t *testing.T) {
	for _, name := range []machines.Name{machines.K5, machines.SuperSPARC} {
		t.Run(string(name), func(t *testing.T) {
			eng, meta := traceEngine(t, name, "probeplan")
			wl := trace.Workload{Seeded: true, NumOps: 2000, Seed: 1996, Shards: 4}
			rec, err := trace.Capture(context.Background(), eng, meta, wl, 4)
			if err != nil {
				t.Fatal(err)
			}
			if len(rec.Outcomes) == 0 {
				t.Fatal("capture produced no outcomes")
			}

			// A fresh engine over the same description must reproduce every
			// schedule and counter exactly.
			eng2, meta2 := traceEngine(t, name, "probeplan")
			if meta2.MachineHash != rec.Meta.MachineHash {
				t.Fatalf("fingerprint drift: %s vs %s", meta2.MachineHash, rec.Meta.MachineHash)
			}
			rep, err := trace.Replay(context.Background(), eng2, rec, 4)
			if err != nil {
				t.Fatal(err)
			}
			if !rep.Identical() {
				t.Fatalf("replay diverged: %d of %d blocks, first: %+v",
					len(rep.Mismatches), rep.Blocks, rep.Mismatches[0])
			}
			if rep.Blocks != len(rec.Outcomes) {
				t.Fatalf("replayed %d blocks, recorded %d", rep.Blocks, len(rec.Outcomes))
			}
		})
	}
}

func TestReplayDetectsDivergence(t *testing.T) {
	eng, meta := traceEngine(t, machines.K5, "probeplan")
	wl := trace.Workload{Seeded: true, NumOps: 500, Seed: 7, Shards: 2}
	rec, err := trace.Capture(context.Background(), eng, meta, wl, 2)
	if err != nil {
		t.Fatal(err)
	}
	rec.Outcomes[0].Length += 5
	rec.Outcomes[1].Counters.Attempts += 3
	rep, err := trace.Replay(context.Background(), eng, rec, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Mismatches) != 2 {
		t.Fatalf("mismatches = %+v, want tampered blocks 0 and 1", rep.Mismatches)
	}
}

func TestSeededWorkloadRegeneratesDeterministically(t *testing.T) {
	rec := &trace.Recording{
		Meta:     trace.Meta{Machine: string(machines.K5)},
		Workload: trace.Workload{Seeded: true, NumOps: 300, Seed: 11, Shards: 3},
	}
	a, err := rec.Blocks()
	if err != nil {
		t.Fatal(err)
	}
	b, err := rec.Blocks()
	if err != nil {
		t.Fatal(err)
	}
	direct, err := workload.GenerateParallel(workload.Config{
		Machine: machines.K5, NumOps: 300, Seed: 11,
	}, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(a) != len(b) || len(a) != len(direct.Blocks) {
		t.Fatalf("block counts: %d, %d, %d", len(a), len(b), len(direct.Blocks))
	}
	for i := range a {
		if len(a[i].Ops) != len(direct.Blocks[i].Ops) {
			t.Fatalf("block %d: %d ops vs %d direct", i, len(a[i].Ops), len(direct.Blocks[i].Ops))
		}
	}
}
