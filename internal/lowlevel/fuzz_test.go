package lowlevel

import (
	"bytes"
	"testing"

	"mdes/internal/machines"
)

// FuzzEncodeDecode asserts the arena encoder's fixpoint on arbitrary
// bytes: whatever OpenArena accepts materializes into a Validate-clean
// description whose encoding, reopened and materialized again, encodes to
// the same bytes (EncodeArena → OpenArena → MDES() → EncodeArena). The
// corpus is seeded with real encodings of the hand-written machines in
// both forms, so mutation starts from deep in the format. The committed
// corpus (testdata/fuzz/FuzzEncodeDecode) holds the same machines in the
// retired v3 stream format, which must be refused without a panic.
func FuzzEncodeDecode(f *testing.F) {
	for _, n := range machines.All {
		mach := machines.MustLoad(n)
		for _, form := range []Form{FormOR, FormAndOr} {
			arena, err := Compile(mach, form).EncodeArena()
			if err != nil {
				f.Fatal(err)
			}
			f.Add(arena)
			// A corrupted seed too: without one, the first mutation of a
			// large seed that fails the CRC pair is new coverage, and
			// minimizing a 400 KB input stalls the fuzzer for its whole
			// minimization budget.
			bad := append([]byte(nil), arena...)
			bad[len(bad)/3] ^= 0x10
			f.Add(bad)
		}
	}
	f.Add([]byte("MDAR"))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 1<<20 {
			return
		}
		a, err := OpenArena(data)
		if err != nil {
			return
		}
		m := a.MDES()
		if err := m.Validate(); err != nil {
			t.Fatalf("OpenArena accepted a description Validate rejects: %v", err)
		}
		first, err := m.EncodeArena()
		if err != nil {
			t.Fatalf("accepted arena does not re-encode: %v", err)
		}
		a2, err := OpenArena(first)
		if err != nil {
			t.Fatalf("re-encoded arena rejected: %v", err)
		}
		second, err := a2.MDES().EncodeArena()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(first, second) {
			t.Fatal("EncodeArena is not a fixpoint across OpenArena")
		}
	})
}

// FuzzArenaOpen asserts the arena format's corruption contract on
// arbitrary bytes: OpenArena never panics, never over-allocates (every
// count is derived from checked section byte lengths), and rejects any
// buffer whose checksum or structure is wrong with a positioned error.
// Anything it accepts must behave like a real description: reopen
// identically (the buffer is the canonical form) and materialize into a
// Validate-clean MDES whose frozen view carries a usable probe plan.
func FuzzArenaOpen(f *testing.F) {
	for _, n := range machines.All {
		mach := machines.MustLoad(n)
		for _, form := range []Form{FormOR, FormAndOr} {
			arena, err := Compile(mach, form).EncodeArena()
			if err != nil {
				f.Fatal(err)
			}
			f.Add(arena)
			// A corrupted seed too, so mutation explores the reject paths.
			bad := append([]byte(nil), arena...)
			bad[len(bad)/3] ^= 0x10
			f.Add(bad)
		}
	}
	f.Add([]byte("MDAR"))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 1<<20 {
			return
		}
		a, err := OpenArena(data)
		if err != nil {
			return
		}
		// Accepted: the buffer must be self-consistent end to end.
		m := a.MDES()
		if err := m.Validate(); err != nil {
			t.Fatalf("OpenArena accepted an arena Validate rejects: %v", err)
		}
		view := a.FrozenMDES()
		if !view.Frozen() {
			t.Fatal("FrozenMDES returned an unfrozen view")
		}
		if view.ArenaPlan() == nil {
			t.Fatal("accepted arena lost its probe plan")
		}
		again, err := OpenArena(a.Bytes())
		if err != nil {
			t.Fatalf("accepted arena does not reopen: %v", err)
		}
		if again.MachineName() != a.MachineName() {
			t.Fatal("reopen changed the machine name")
		}
	})
}
