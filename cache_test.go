package mdes_test

import (
	"bytes"
	"context"
	"encoding/binary"
	"hash/fnv"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"mdes"
)

func builtinSource(t testing.TB, name mdes.BuiltinName) string {
	t.Helper()
	src, err := mdes.BuiltinSource(name)
	if err != nil {
		t.Fatal(err)
	}
	return src
}

func freshCompiled(t testing.TB, name mdes.BuiltinName, form mdes.Form, level mdes.Level) *mdes.Compiled {
	t.Helper()
	machine, err := mdes.Builtin(name)
	if err != nil {
		t.Fatal(err)
	}
	c := mdes.Compile(machine, form)
	mdes.Optimize(c, level)
	return c
}

// TestArenaEngineEquivalence is the acceptance gate for the cache path:
// an engine built from an arena round trip must produce byte-identical
// schedules (per-op issue cycles, lengths) and identical stats counters
// vs a freshly compiled description, across every checker backend and
// every built-in machine.
func TestArenaEngineEquivalence(t *testing.T) {
	for _, name := range []mdes.BuiltinName{mdes.PA7100, mdes.Pentium, mdes.SuperSPARC, mdes.K5} {
		blocks := testBlocks(t, name, 2000)
		for _, kind := range mdes.CheckerKinds() {
			fresh := freshCompiled(t, name, mdes.FormAndOr, mdes.LevelFull)
			refEng, err := mdes.NewEngine(fresh, mdes.WithChecker(kind))
			if err != nil {
				t.Fatal(err)
			}
			want, wantTotal, err := refEng.ScheduleBlocks(context.Background(), blocks, 1)
			if err != nil {
				t.Fatal(err)
			}

			arena, err := mdes.EncodeArena(freshCompiled(t, name, mdes.FormAndOr, mdes.LevelFull))
			if err != nil {
				t.Fatal(err)
			}
			a, err := mdes.OpenArena(arena)
			if err != nil {
				t.Fatal(err)
			}
			cached := a.FrozenMDES()
			if kind == mdes.CheckerProbePlan && cached.ArenaPlan() == nil {
				t.Fatalf("%s: arena view lost its probe plan", name)
			}
			eng, err := mdes.NewEngine(cached, mdes.WithChecker(kind))
			if err != nil {
				t.Fatal(err)
			}
			got, total, err := eng.ScheduleBlocks(context.Background(), blocks, 1)
			if err != nil {
				t.Fatalf("%s/%s: %v", name, kind, err)
			}
			if total != wantTotal {
				t.Fatalf("%s/%s: counters %+v, fresh %+v", name, kind, total, wantTotal)
			}
			for bi, r := range got {
				if r.Length != want[bi].Length {
					t.Fatalf("%s/%s block %d: length %d, fresh %d", name, kind, bi, r.Length, want[bi].Length)
				}
				for oi, c := range r.Issue {
					if c != want[bi].Issue[oi] {
						t.Fatalf("%s/%s block %d op %d: cycle %d, fresh %d", name, kind, bi, oi, c, want[bi].Issue[oi])
					}
				}
			}
		}
	}
}

// LoadCached: a cold call populates the store, a warm call returns a
// frozen view of the same description; both schedule identically.
func TestLoadCachedWarmMatchesCold(t *testing.T) {
	dir := t.TempDir()
	src := builtinSource(t, mdes.K5)

	cold, err := mdes.LoadCached("k5.mdes", src, mdes.FormAndOr, mdes.LevelFull, dir)
	if err != nil {
		t.Fatal(err)
	}
	if cold.Frozen() {
		t.Fatal("cold-path description should be mutable (it ran the pipeline)")
	}
	warm, err := mdes.LoadCached("k5.mdes", src, mdes.FormAndOr, mdes.LevelFull, dir)
	if err != nil {
		t.Fatal(err)
	}
	if !warm.Frozen() {
		t.Fatal("warm-path description should be a frozen arena view")
	}
	coldFP, err := cold.Fingerprint()
	if err != nil {
		t.Fatal(err)
	}
	warmFP, err := warm.Fingerprint()
	if err != nil {
		t.Fatal(err)
	}
	if coldFP != warmFP {
		t.Fatalf("fingerprint drift across the cache: %s vs %s", coldFP, warmFP)
	}

	blocks := testBlocks(t, mdes.K5, 1500)
	ce, err := mdes.NewEngine(cold, mdes.WithChecker(mdes.CheckerProbePlan))
	if err != nil {
		t.Fatal(err)
	}
	we, err := mdes.NewEngine(warm, mdes.WithChecker(mdes.CheckerProbePlan))
	if err != nil {
		t.Fatal(err)
	}
	want, wantTotal, err := ce.ScheduleBlocks(context.Background(), blocks, 1)
	if err != nil {
		t.Fatal(err)
	}
	got, total, err := we.ScheduleBlocks(context.Background(), blocks, 1)
	if err != nil {
		t.Fatal(err)
	}
	if total != wantTotal {
		t.Fatalf("counters %+v vs %+v", total, wantTotal)
	}
	for bi := range got {
		if got[bi].Length != want[bi].Length {
			t.Fatalf("block %d length %d vs %d", bi, got[bi].Length, want[bi].Length)
		}
	}
}

// Distinct forms, levels, and directions must occupy distinct cache
// entries.
func TestLoadCachedKeySeparation(t *testing.T) {
	dir := t.TempDir()
	src := builtinSource(t, mdes.Pentium)
	variants := []struct {
		form  mdes.Form
		level mdes.Level
		opts  []mdes.CacheOption
	}{
		{mdes.FormAndOr, mdes.LevelFull, nil},
		{mdes.FormOR, mdes.LevelFull, nil},
		{mdes.FormAndOr, mdes.LevelNone, nil},
		{mdes.FormAndOr, mdes.LevelFull, []mdes.CacheOption{mdes.WithCacheDirection(mdes.Backward)}},
	}
	for _, v := range variants {
		if _, err := mdes.LoadCached("pentium.mdes", src, v.form, v.level, dir, v.opts...); err != nil {
			t.Fatal(err)
		}
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != len(variants) {
		names := make([]string, len(ents))
		for i, e := range ents {
			names[i] = e.Name()
		}
		t.Fatalf("%d cache entries for %d variants: %v", len(ents), len(variants), names)
	}
}

// asV4 rewrites an arena in the previous format: the same layout under
// version 4, checked by FNV-64a.
func asV4(arena []byte) []byte {
	v4 := append([]byte(nil), arena...)
	binary.LittleEndian.PutUint32(v4[4:], 4)
	h := fnv.New64a()
	h.Write(v4[24:])
	binary.LittleEndian.PutUint64(v4[16:], h.Sum64())
	return v4
}

// A damaged cache entry — flipped bits in the payload or the check field,
// a write torn inside the header, the section table or the payload, or a
// v4 arena under the v5 name — must be rejected and transparently
// recompiled into the description a fresh compile produces.
func TestLoadCachedCorruptEntryRecovers(t *testing.T) {
	src := builtinSource(t, mdes.SuperSPARC)
	want, err := mdes.EncodeArena(freshCompiled(t, mdes.SuperSPARC, mdes.FormAndOr, mdes.LevelFull))
	if err != nil {
		t.Fatal(err)
	}
	flip := func(i int) []byte {
		b := append([]byte(nil), want...)
		b[i] ^= 0xff
		return b
	}
	for _, d := range []struct {
		name string
		data []byte
	}{
		{"flip-payload", flip(len(want) / 2)},
		{"flip-check", flip(21)},
		{"torn-header", want[:40]},
		{"torn-section-table", want[:150]},
		{"torn-payload", want[:len(want)/2]},
		{"v4-arena", asV4(want)},
	} {
		dir := t.TempDir()
		if _, err := mdes.LoadCached("ss.mdes", src, mdes.FormAndOr, mdes.LevelFull, dir); err != nil {
			t.Fatal(err)
		}
		ents, err := filepath.Glob(filepath.Join(dir, "*.mdar"))
		if err != nil || len(ents) != 1 {
			t.Fatalf("glob: %v %v", ents, err)
		}
		if err := os.WriteFile(ents[0], d.data, 0o644); err != nil {
			t.Fatal(err)
		}
		c, err := mdes.LoadCached("ss.mdes", src, mdes.FormAndOr, mdes.LevelFull, dir)
		if err != nil {
			t.Fatalf("%s: damaged entry not recovered: %v", d.name, err)
		}
		if c.Frozen() {
			t.Fatalf("%s: damaged entry served instead of recompiled", d.name)
		}
		got, err := mdes.EncodeArena(c)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("%s: recovered description differs from a fresh compile", d.name)
		}
	}
}

// EngineFromCache on a warm store must reach a serving engine whose
// results match a pipeline-built engine.
func TestEngineFromCache(t *testing.T) {
	dir := t.TempDir()
	src := builtinSource(t, mdes.K5)
	// Warm the store.
	if _, err := mdes.LoadCached("k5.mdes", src, mdes.FormAndOr, mdes.LevelFull, dir); err != nil {
		t.Fatal(err)
	}
	eng, err := mdes.EngineFromCache("k5.mdes", src, mdes.FormAndOr, mdes.LevelFull, dir, nil,
		mdes.WithChecker(mdes.CheckerProbePlan))
	if err != nil {
		t.Fatal(err)
	}
	if !eng.Compiled().Frozen() {
		t.Fatal("cache-built engine serves an unfrozen description")
	}
	blocks := testBlocks(t, mdes.K5, 1000)
	ref := newCheckerEngine(t, mdes.K5, mdes.CheckerProbePlan)
	want, wantTotal, err := ref.ScheduleBlocks(context.Background(), blocks, 1)
	if err != nil {
		t.Fatal(err)
	}
	got, total, err := eng.ScheduleBlocks(context.Background(), blocks, 4)
	if err != nil {
		t.Fatal(err)
	}
	if total != wantTotal {
		t.Fatalf("counters %+v vs %+v", total, wantTotal)
	}
	for bi := range got {
		if got[bi].Length != want[bi].Length {
			t.Fatalf("block %d: length %d vs %d", bi, got[bi].Length, want[bi].Length)
		}
	}
}

// WithTuned prefers a tuned slot when one exists and falls back to the
// base entry otherwise. The "tuned" layout here is the description itself
// re-stored under a tuned name — the preference mechanics are what's under
// test; mdtune's equivalence gates own layout correctness.
func TestLoadCachedWithTuned(t *testing.T) {
	dir := t.TempDir()
	src := builtinSource(t, mdes.K5)
	base, err := mdes.LoadCached("k5.mdes", src, mdes.FormAndOr, mdes.LevelFull, dir)
	if err != nil {
		t.Fatal(err)
	}
	// No tuned slot yet: WithTuned silently serves the base entry.
	c, err := mdes.LoadCached("k5.mdes", src, mdes.FormAndOr, mdes.LevelFull, dir, mdes.WithTuned())
	if err != nil {
		t.Fatal(err)
	}
	if !c.Frozen() {
		t.Fatal("expected a warm hit")
	}

	// Store a tuned slot by renaming a copy of the base entry.
	ents, err := filepath.Glob(filepath.Join(dir, "*.mdar"))
	if err != nil || len(ents) != 1 {
		t.Fatalf("glob: %v %v", ents, err)
	}
	data, err := os.ReadFile(ents[0])
	if err != nil {
		t.Fatal(err)
	}
	fp, err := base.Fingerprint()
	if err != nil {
		t.Fatal(err)
	}
	tunedPath := strings.TrimSuffix(ents[0], ".mdar") + ".tuned-" + fp + "-0123456789abcdef.mdar"
	if err := os.WriteFile(tunedPath, data, 0o644); err != nil {
		t.Fatal(err)
	}
	got, err := mdes.LoadCached("k5.mdes", src, mdes.FormAndOr, mdes.LevelFull, dir, mdes.WithTuned())
	if err != nil {
		t.Fatal(err)
	}
	gotFP, err := got.Fingerprint()
	if err != nil {
		t.Fatal(err)
	}
	if gotFP != fp {
		t.Fatalf("tuned hit fingerprint %s, want %s", gotFP, fp)
	}
	// Without WithTuned the base entry still serves.
	if _, err := mdes.LoadCached("k5.mdes", src, mdes.FormAndOr, mdes.LevelFull, dir); err != nil {
		t.Fatal(err)
	}
}
