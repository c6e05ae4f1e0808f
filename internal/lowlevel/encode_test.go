package lowlevel

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"strings"
	"testing"

	"mdes/internal/hmdes"
)

// roundTrip encodes m to an arena, reopens it and returns the deep-copy
// materialization, after checking that the copy re-encodes to the same
// bytes.
func roundTrip(t *testing.T, m *MDES) *MDES {
	t.Helper()
	buf, err := m.EncodeArena()
	if err != nil {
		t.Fatal(err)
	}
	a, err := OpenArena(buf)
	if err != nil {
		t.Fatal(err)
	}
	back := a.MDES()
	again, err := back.EncodeArena()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf, again) {
		t.Fatal("arena re-encode is not byte-identical")
	}
	return back
}

// restamp rewrites the header's length and check fields so that only the
// structural pass can reject the buffer.
func restamp(buf []byte) []byte {
	binary.LittleEndian.PutUint64(buf[8:], uint64(len(buf)))
	binary.LittleEndian.PutUint32(buf[16:], crc32.Checksum(buf[24:], castagnoli))
	binary.LittleEndian.PutUint32(buf[20:], crc32.ChecksumIEEE(buf[24:]))
	return buf
}

func TestEncodeRoundTripBasics(t *testing.T) {
	m := Compile(loadMini(t), FormAndOr)
	back := roundTrip(t, m)
	if back.MachineName != m.MachineName || back.Form != m.Form || back.Packed != m.Packed {
		t.Fatalf("header changed: %+v", back)
	}
	if back.NumResources != m.NumResources || len(back.ResourceNames) != len(m.ResourceNames) {
		t.Fatalf("resources changed")
	}
	if len(back.Options) != len(m.Options) || len(back.Trees) != len(m.Trees) {
		t.Fatalf("pool sizes changed: %d/%d vs %d/%d",
			len(back.Options), len(back.Trees), len(m.Options), len(m.Trees))
	}
	if back.Size() != m.Size() {
		t.Fatalf("Size changed: %+v vs %+v", back.Size(), m.Size())
	}
}

func TestEncodePreservesSharing(t *testing.T) {
	m := Compile(loadMini(t), FormAndOr)
	back := roundTrip(t, m)
	load := back.Constraints[back.ClassIndex["load"]]
	ialu := back.Constraints[back.ClassIndex["ialu1"]]
	if load.Trees[2] != ialu.Trees[3] {
		t.Fatalf("tree sharing lost in serialization")
	}
	if load.Trees[2].SharedBy != 2 {
		t.Fatalf("SharedBy lost: %d", load.Trees[2].SharedBy)
	}
}

func TestEncodePreservesUsagesAndOperations(t *testing.T) {
	m := Compile(loadMini(t), FormOR)
	back := roundTrip(t, m)
	for i, o := range m.Options {
		bo := back.Options[i]
		if len(bo.Usages) != len(o.Usages) {
			t.Fatalf("option %d usages changed", i)
		}
		for j := range o.Usages {
			if bo.Usages[j] != o.Usages[j] {
				t.Fatalf("option %d usage %d changed", i, j)
			}
		}
	}
	for i, op := range m.Operations {
		if *back.Operations[i] != *op {
			t.Fatalf("operation %d changed: %+v vs %+v", i, back.Operations[i], op)
		}
	}
}

func TestEncodePackedMasks(t *testing.T) {
	m := Compile(loadMini(t), FormAndOr)
	// Pack by hand to avoid an import cycle with opt.
	for _, o := range m.Options {
		for _, u := range o.Usages {
			o.Masks = append(o.Masks, CycleMask{Time: u.Time, Word: u.Res / 64, Mask: 1 << uint(u.Res%64)})
		}
	}
	m.Packed = true
	back := roundTrip(t, m)
	if !back.Packed {
		t.Fatalf("Packed flag lost")
	}
	for i, o := range m.Options {
		bo := back.Options[i]
		if len(bo.Masks) != len(o.Masks) {
			t.Fatalf("option %d masks changed", i)
		}
		for j := range o.Masks {
			if bo.Masks[j] != o.Masks[j] {
				t.Fatalf("option %d mask %d changed", i, j)
			}
		}
	}
}

// TestDecodeRejectsGarbage feeds OpenArena garbage and the stale formats
// it replaced: a v3 stream and a v4 arena header.
func TestDecodeRejectsGarbage(t *testing.T) {
	if _, err := OpenArena([]byte("not an mdes file")); err == nil {
		t.Fatalf("garbage accepted")
	}
	if _, err := OpenArena(nil); err == nil {
		t.Fatalf("empty input accepted")
	}
	v3 := append([]byte{'M', 'D', 'E', 'S', 3}, make([]byte, arenaHeaderSize)...)
	if _, err := OpenArena(v3); err == nil || !strings.Contains(err.Error(), "bad magic") {
		t.Fatalf("v3 stream: got %v, want a bad-magic rejection", err)
	}
	buf, err := Compile(loadMini(t), FormAndOr).EncodeArena()
	if err != nil {
		t.Fatal(err)
	}
	binary.LittleEndian.PutUint32(buf[4:], 4)
	if _, err := OpenArena(buf); err == nil || !strings.Contains(err.Error(), "unsupported version 4") {
		t.Fatalf("v4 arena: got %v, want a version rejection", err)
	}
}

// TestDecodeRejectsTruncation cuts the arena and re-stamps the header so
// the length and check fields agree with the short buffer: the section
// table's bounds checks must still reject every cut inside a section.
func TestDecodeRejectsTruncation(t *testing.T) {
	data, err := Compile(loadMini(t), FormAndOr).EncodeArena()
	if err != nil {
		t.Fatal(err)
	}
	for _, cut := range []int{arenaHeaderSize + 1, len(data) / 2, len(data) - 1} {
		mut := restamp(append([]byte(nil), data[:cut]...))
		if _, err := OpenArena(mut); err == nil || !strings.Contains(err.Error(), "outside arena") {
			t.Fatalf("truncation at %d: got %v, want a section-bounds rejection", cut, err)
		}
	}
}

// TestDecodeValidates corrupts an index inside a valid arena and
// re-stamps the check value: the structural pass, not the CRC pair, must
// catch every such corruption.
func TestDecodeValidates(t *testing.T) {
	data, err := Compile(loadMini(t), FormAndOr).EncodeArena()
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		sec   int
		field uint64 // byte offset of the corrupted u32 in the first record
		want  string
	}{
		{secTreeOpts, 0, "option index"},
		{secConTrees, 0, "tree index"},
		{secOps, 8, "constraint"},
		{secPlanCon, 0, "section plan-con-starts"},
	}
	for _, tc := range cases {
		mut := append([]byte(nil), data...)
		off := le64(mut[arenaHdrFixed+tc.sec*16:])
		binary.LittleEndian.PutUint32(mut[off+tc.field:], 1<<30)
		if _, err := OpenArena(restamp(mut)); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Fatalf("section %s: got %v, want a rejection mentioning %q", arenaSectionNames[tc.sec], err, tc.want)
		}
	}
}

func TestEncodeCustomSource(t *testing.T) {
	src := `machine Z {
	  resource A[3];
	  class c { one_of A[0..2] @ -1; }
	  operation X class c latency 4;
	}`
	mach, err := hmdes.Load("z", src)
	if err != nil {
		t.Fatal(err)
	}
	m := Compile(mach, FormOR)
	back := roundTrip(t, m)
	if back.Operations[0].Latency != 4 {
		t.Fatalf("latency lost")
	}
	if back.Options[0].Usages[0].Time != -1 {
		t.Fatalf("negative time lost: %+v", back.Options[0].Usages[0])
	}
}

func TestEncodeBypassesAndSrcTime(t *testing.T) {
	src := `machine T {
	  resource U;
	  class c { use U @ 0; }
	  operation MUL class c latency 3;
	  operation MAC class c latency 3 src 1;
	  bypass MUL to MAC adjust -1;
	}`
	mach, err := hmdes.Load("t", src)
	if err != nil {
		t.Fatal(err)
	}
	m := Compile(mach, FormAndOr)
	back := roundTrip(t, m)
	mac := back.Operations[back.OpIndex["MAC"]]
	if mac.SrcTime != 1 {
		t.Fatalf("SrcTime lost: %+v", mac)
	}
	mul := back.OpIndex["MUL"]
	if got := back.FlowDistance(mul, back.OpIndex["MAC"]); got != 1 {
		t.Fatalf("decoded FlowDistance = %d, want 1", got)
	}
	if got := back.FlowDistance(mul, mul); got != 3 {
		t.Fatalf("decoded MUL->MUL = %d, want 3", got)
	}
}
