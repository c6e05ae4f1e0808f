package profile

import (
	"bytes"
	"reflect"
	"testing"
)

func testSnapshot() Snapshot {
	p := New(testMDES())
	p.SetMeta("toy", "0123456789abcdef", "probeplan")
	p.SetWorkload("seeded ops=100 seed=1")
	// alu succeeds once picking A[1] (A[0] probed busy) and fails once on
	// tree A blocked by r2; mem succeeds once.
	p.AddConstraint(0, 2, 1)
	p.AddConstraint(1, 1, 0)
	p.AddFirstBlock(0, 1)
	p.AddOption(0, 0, 1)
	p.AddOption(1, 1, 0)
	p.AddResource(2, 1)
	p.NoteMerge()
	return p.Snapshot()
}

func TestEncodeDecodeRoundtrip(t *testing.T) {
	s := testSnapshot()
	data, addr, err := Encode(&s)
	if err != nil {
		t.Fatal(err)
	}
	got, gotAddr, err := Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	if gotAddr != addr {
		t.Fatalf("decode address %s, encode address %s", gotAddr, addr)
	}
	if !reflect.DeepEqual(*got, s) {
		t.Fatalf("roundtrip mismatch:\n got %+v\nwant %+v", *got, s)
	}
	// Content addressing: the same snapshot encodes to the same bytes and
	// the same address, deterministically.
	data2, addr2, err := Encode(got)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(data, data2) || addr != addr2 {
		t.Fatalf("re-encode not deterministic: %s vs %s", addr, addr2)
	}
}

func TestDecodeRejectsCorruption(t *testing.T) {
	s := testSnapshot()
	data, _, err := Encode(&s)
	if err != nil {
		t.Fatal(err)
	}
	// Flip one body byte: trailer checksum must catch it.
	bad := append([]byte(nil), data...)
	bad[len(bad)/2] ^= 0x40
	if _, _, err := Decode(bad); err == nil {
		t.Fatal("decode accepted a corrupted body")
	}
	// Truncations at every length must error, never panic.
	for n := 0; n < len(data); n++ {
		if _, _, err := Decode(data[:n]); err == nil {
			t.Fatalf("decode accepted a %d-byte truncation", n)
		}
	}
	// Wrong magic.
	bad = append([]byte(nil), data...)
	bad[0] = 'X'
	if _, _, err := Decode(bad); err == nil {
		t.Fatal("decode accepted bad magic")
	}
}

// FuzzDecode feeds arbitrary bytes to the MDPF decoder: it must never
// panic or over-allocate, and anything it accepts must re-encode to the
// identical artifact (the content address is a true identity).
func FuzzDecode(f *testing.F) {
	s := testSnapshot()
	if data, _, err := Encode(&s); err == nil {
		f.Add(data)
		f.Add(data[:len(data)-9])
		tweaked := append([]byte(nil), data...)
		tweaked[6] ^= 0xff
		f.Add(tweaked)
	}
	f.Add([]byte("MDPF"))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		got, addr, err := Decode(data)
		if err != nil {
			return
		}
		re, reAddr, err := Encode(got)
		if err != nil {
			t.Fatalf("re-encode of accepted artifact failed: %v", err)
		}
		if reAddr != addr {
			t.Fatalf("address changed across decode/encode: %s -> %s", addr, reAddr)
		}
		if !bytes.Equal(re, data) {
			t.Fatalf("accepted artifact is not canonical: %d bytes in, %d out", len(data), len(re))
		}
	})
}
