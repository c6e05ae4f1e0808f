package lowlevel_test

import (
	"bytes"
	"fmt"
	"testing"

	"mdes/internal/lowlevel"
	"mdes/internal/machines"
	"mdes/internal/opt"
)

// testDescriptions compiles every hand-written machine at each form ×
// level combination the arena must round-trip: unoptimized scalar usages,
// the packed bit-vector form, negative-time backward descriptions, and the
// full pipeline.
func testDescriptions(t testing.TB) map[string]*lowlevel.MDES {
	out := map[string]*lowlevel.MDES{}
	for _, n := range machines.All {
		mach := machines.MustLoad(n)
		for _, form := range []lowlevel.Form{lowlevel.FormOR, lowlevel.FormAndOr} {
			for _, lvl := range []opt.Level{opt.LevelNone, opt.LevelBitVector, opt.LevelFull} {
				for _, dir := range []opt.Direction{opt.Forward, opt.Backward} {
					m := lowlevel.Compile(mach, form)
					opt.Apply(m, lvl, dir)
					out[fmt.Sprintf("%s/%v/%v/%v", n, form, lvl, dir)] = m
				}
			}
		}
	}
	return out
}

// arenaBytes re-encodes a description to its arena bytes.
func arenaBytes(t testing.TB, m *lowlevel.MDES) []byte {
	t.Helper()
	buf, err := m.EncodeArena()
	if err != nil {
		t.Fatalf("arena encode: %v", err)
	}
	return buf
}

// TestArenaRoundTripLossless is the format contract: arena → MDES() →
// arena must reproduce the original bytes exactly, which pins provenance
// (Src), SharedBy, capacity-relevant counts, the nil-vs-empty Masks
// distinction, and therefore the Fingerprint, which is the same for the
// source (unfrozen and frozen), the deep copy and the frozen view.
func TestArenaRoundTripLossless(t *testing.T) {
	for name, m := range testDescriptions(t) {
		arena := arenaBytes(t, m)
		a, err := lowlevel.OpenArena(arena)
		if err != nil {
			t.Fatalf("%s: OpenArena: %v", name, err)
		}
		if got := arenaBytes(t, a.MDES()); !bytes.Equal(arena, got) {
			t.Fatalf("%s: arena bytes differ after round trip (%d vs %d bytes)", name, len(arena), len(got))
		}
		wantFP, err := m.Fingerprint()
		if err != nil {
			t.Fatal(err)
		}
		if err := m.Freeze(); err != nil {
			t.Fatal(err)
		}
		for _, c := range []*lowlevel.MDES{m, a.MDES(), a.FrozenMDES()} {
			gotFP, err := c.Fingerprint()
			if err != nil {
				t.Fatal(err)
			}
			if wantFP != gotFP {
				t.Fatalf("%s: fingerprint drift: %s vs %s", name, wantFP, gotFP)
			}
		}
	}
}

// TestArenaFrozenView checks the zero-copy materialization: the view is
// frozen, passes Validate, carries the persisted probe plan, and
// re-encodes to the arena it was opened from.
func TestArenaFrozenView(t *testing.T) {
	for name, m := range testDescriptions(t) {
		arena, err := m.EncodeArena()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		a, err := lowlevel.OpenArena(arena)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		fm := a.FrozenMDES()
		if !fm.Frozen() {
			t.Fatalf("%s: FrozenMDES view is not frozen", name)
		}
		if err := fm.Validate(); err != nil {
			t.Fatalf("%s: frozen view fails Validate: %v", name, err)
		}
		if fm.ArenaPlan() == nil {
			t.Fatalf("%s: frozen view carries no arena plan", name)
		}
		if got := arenaBytes(t, fm); !bytes.Equal(got, arena) {
			t.Fatalf("%s: frozen view encodes differently from source", name)
		}
		if fm.MachineName != a.MachineName() {
			t.Fatalf("%s: machine name mismatch %q vs %q", name, fm.MachineName, a.MachineName())
		}
		// The deep copy must NOT inherit the plan: it is mutable, and a
		// stale plan after an opt pass would corrupt schedules.
		if a.MDES().ArenaPlan() != nil {
			t.Fatalf("%s: mutable copy inherited the arena plan", name)
		}
	}
}

// TestArenaRejectsTruncation slices the arena at every prefix length of a
// coarse sweep plus every boundary near the header: all must be rejected
// without panicking.
func TestArenaRejectsTruncation(t *testing.T) {
	m := lowlevel.Compile(machines.MustLoad(machines.K5), lowlevel.FormAndOr)
	opt.Apply(m, opt.LevelFull, opt.Forward)
	arena, err := m.EncodeArena()
	if err != nil {
		t.Fatal(err)
	}
	cuts := map[int]bool{}
	for i := 0; i <= 512 && i < len(arena); i++ {
		cuts[i] = true
	}
	for i := 0; i < len(arena); i += 97 {
		cuts[i] = true
	}
	cuts[len(arena)-1] = true
	for cut := range cuts {
		if _, err := lowlevel.OpenArena(arena[:cut]); err == nil {
			t.Fatalf("truncation to %d bytes accepted", cut)
		}
	}
}

// TestArenaRejectsBitFlips flips one bit at a sweep of positions: every
// corruption must be rejected (the CRC pair covers all bytes past the
// check field, and the header fields before it are each independently
// validated).
func TestArenaRejectsBitFlips(t *testing.T) {
	m := lowlevel.Compile(machines.MustLoad(machines.SuperSPARC), lowlevel.FormAndOr)
	opt.Apply(m, opt.LevelFull, opt.Forward)
	arena, err := m.EncodeArena()
	if err != nil {
		t.Fatal(err)
	}
	for pos := 0; pos < len(arena); pos += 13 {
		for bit := 0; bit < 8; bit += 3 {
			mut := append([]byte(nil), arena...)
			mut[pos] ^= 1 << bit
			if _, err := lowlevel.OpenArena(mut); err == nil {
				t.Fatalf("bit flip at byte %d bit %d accepted", pos, bit)
			}
		}
	}
}

// TestArenaErrorsArePositioned spot-checks that rejection messages name
// what and where, not just "bad input".
func TestArenaErrorsArePositioned(t *testing.T) {
	m := lowlevel.Compile(machines.MustLoad(machines.PA7100), lowlevel.FormOR)
	arena, err := m.EncodeArena()
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name   string
		mutate func([]byte) []byte
		want   string
	}{
		{"short", func(b []byte) []byte { return b[:16] }, "short buffer"},
		{"magic", func(b []byte) []byte { b[0] = 'X'; return b }, "bad magic"},
		{"version", func(b []byte) []byte { b[4] = 9; return b }, "unsupported version 9"},
		{"length", func(b []byte) []byte { return b[:len(b)-1] }, "length mismatch"},
		{"checksum", func(b []byte) []byte { b[len(b)-1] ^= 1; return b }, "checksum mismatch"},
	}
	for _, tc := range cases {
		mut := tc.mutate(append([]byte(nil), arena...))
		_, err := lowlevel.OpenArena(mut)
		if err == nil {
			t.Fatalf("%s: accepted", tc.name)
		}
		if !bytes.Contains([]byte(err.Error()), []byte(tc.want)) {
			t.Fatalf("%s: error %q does not mention %q", tc.name, err, tc.want)
		}
	}
}

// TestArenaMisalignedFallback opens the arena from a deliberately
// misaligned buffer: the cast fast path cannot be used, and the decode
// fallback must produce an identical description.
func TestArenaMisalignedFallback(t *testing.T) {
	m := lowlevel.Compile(machines.MustLoad(machines.Pentium), lowlevel.FormAndOr)
	opt.Apply(m, opt.LevelFull, opt.Forward)
	arena, err := m.EncodeArena()
	if err != nil {
		t.Fatal(err)
	}
	shifted := make([]byte, len(arena)+1)
	copy(shifted[1:], arena)
	a, err := lowlevel.OpenArena(shifted[1:])
	if err != nil {
		t.Fatalf("misaligned open: %v", err)
	}
	if got := arenaBytes(t, a.MDES()); !bytes.Equal(got, arena) {
		t.Fatal("misaligned open decoded a different description")
	}
}

// TestArenaEmptyDescription round-trips a minimal description with empty
// pools (no operations, no bypasses) — the all-empty-sections edge.
func TestArenaEmptyDescription(t *testing.T) {
	m := &lowlevel.MDES{
		MachineName:  "empty",
		Form:         lowlevel.FormOR,
		NumResources: 1,
		ClassIndex:   map[string]int{},
		OpIndex:      map[string]int{},
		Bypasses:     map[[2]int]int{},
	}
	arena, err := m.EncodeArena()
	if err != nil {
		t.Fatal(err)
	}
	a, err := lowlevel.OpenArena(arena)
	if err != nil {
		t.Fatal(err)
	}
	if got := arenaBytes(t, a.MDES()); !bytes.Equal(got, arena) {
		t.Fatal("empty description round trip drifted")
	}
}
