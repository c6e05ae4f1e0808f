package trace

import (
	"bytes"
	"strings"
	"sync"
	"testing"

	"mdes/internal/ir"
	"mdes/internal/stats"
)

func testRecording() *Recording {
	return &Recording{
		Meta: Meta{
			Machine:     "k5",
			MachineHash: "5e54c5767440e8af",
			Form:        "AND/OR",
			Level:       "full",
			Checker:     "probeplan",
		},
		Workload: Workload{Seeded: true, NumOps: 100, Seed: 42, Shards: 2},
		Outcomes: []Outcome{
			{Length: 3, Issue: []int{0, 0, 1, 2}, Counters: stats.Counters{Attempts: 4, OptionsChecked: 9, ResourceChecks: 20, Conflicts: 1, Backtracks: 0}},
			{Length: 1, Issue: []int{0}, Counters: stats.Counters{Attempts: 1, OptionsChecked: 1, ResourceChecks: 2}},
		},
	}
}

func testInlineRecording() *Recording {
	rec := testRecording()
	rec.Workload = Workload{Blocks: []*ir.Block{
		{Ops: []*ir.Operation{
			{Opcode: "add", ID: 0, Dests: []int{3}, Srcs: []int{1, 2}},
			{Opcode: "load", ID: 1, Dests: []int{4}, Srcs: []int{3}, Mem: ir.MemLoad},
			{Opcode: "br", ID: 2, Srcs: []int{4}, Branch: true, Cascaded: true},
		}},
		{Ops: []*ir.Operation{
			{Opcode: "nop", ID: 0},
		}},
	}}
	return rec
}

func roundTrip(t *testing.T, rec *Recording) *Recording {
	t.Helper()
	var buf bytes.Buffer
	id, err := Write(&buf, rec)
	if err != nil {
		t.Fatalf("Write: %v", err)
	}
	if id != rec.ID || len(id) != 16 {
		t.Fatalf("Write id = %q, rec.ID = %q", id, rec.ID)
	}
	got, err := Read(&buf)
	if err != nil {
		t.Fatalf("Read: %v", err)
	}
	if got.ID != id {
		t.Fatalf("Read id = %q, want %q", got.ID, id)
	}
	return got
}

func TestRoundTripSeeded(t *testing.T) {
	rec := testRecording()
	got := roundTrip(t, rec)
	if got.Meta != rec.Meta {
		t.Errorf("meta = %+v, want %+v", got.Meta, rec.Meta)
	}
	if got.Workload.Seeded != true || got.Workload.NumOps != 100 ||
		got.Workload.Seed != 42 || got.Workload.Shards != 2 {
		t.Errorf("workload = %+v", got.Workload)
	}
	if d := Diff(rec, got); len(d) != 0 {
		t.Errorf("round-tripped recording differs: %v", d)
	}
}

func TestRoundTripInline(t *testing.T) {
	rec := testInlineRecording()
	got := roundTrip(t, rec)
	if len(got.Workload.Blocks) != 2 {
		t.Fatalf("inline blocks = %d", len(got.Workload.Blocks))
	}
	op := got.Workload.Blocks[0].Ops[2]
	if op.Opcode != "br" || !op.Branch || !op.Cascaded || op.Srcs[0] != 4 {
		t.Errorf("op round-trip = %+v", op)
	}
	if got.Workload.Blocks[0].Ops[1].Mem != ir.MemLoad {
		t.Errorf("mem kind lost: %v", got.Workload.Blocks[0].Ops[1].Mem)
	}
	if d := Diff(rec, got); len(d) != 0 {
		t.Errorf("round-tripped recording differs: %v", d)
	}
}

func TestContentAddressedID(t *testing.T) {
	a, idA, err := Encode(testRecording())
	if err != nil {
		t.Fatal(err)
	}
	b, idB, err := Encode(testRecording())
	if err != nil {
		t.Fatal(err)
	}
	if idA != idB || !bytes.Equal(a, b) {
		t.Fatalf("equal recordings encode differently: %s vs %s", idA, idB)
	}
	mod := testRecording()
	mod.Outcomes[0].Length++
	_, idC, err := Encode(mod)
	if err != nil {
		t.Fatal(err)
	}
	if idC == idA {
		t.Fatal("different recordings share a trace ID")
	}
}

func TestDecodeRejectsCorruption(t *testing.T) {
	data, _, err := Encode(testRecording())
	if err != nil {
		t.Fatal(err)
	}

	t.Run("flipped-bit", func(t *testing.T) {
		bad := append([]byte(nil), data...)
		bad[len(bad)/2] ^= 0x40
		if _, err := Decode(bad); err == nil || !strings.Contains(err.Error(), "trailer hash") {
			t.Errorf("flipped bit: err = %v", err)
		}
	})
	t.Run("truncated", func(t *testing.T) {
		if _, err := Decode(data[:len(data)-3]); err == nil {
			t.Error("truncated stream decoded")
		}
		if _, err := Decode(data[:5]); err == nil {
			t.Error("header-only stream decoded")
		}
	})
	t.Run("bad-magic", func(t *testing.T) {
		bad := append([]byte(nil), data...)
		copy(bad, "XXXX")
		rehash(bad)
		if _, err := Decode(bad); err == nil || !strings.Contains(err.Error(), "bad magic") {
			t.Errorf("bad magic: err = %v", err)
		}
	})
	t.Run("future-version", func(t *testing.T) {
		bad := append([]byte(nil), data...)
		bad[4] = Version + 1 // single-byte uvarint
		rehash(bad)
		if _, err := Decode(bad); err == nil || !strings.Contains(err.Error(), "version") {
			t.Errorf("future version: err = %v", err)
		}
	})
	t.Run("trailing-bytes", func(t *testing.T) {
		bad := append([]byte(nil), data[:len(data)-8]...)
		bad = append(bad, 0)
		bad = append(bad, make([]byte, 8)...)
		rehash(bad)
		if _, err := Decode(bad); err == nil || !strings.Contains(err.Error(), "trailing") {
			t.Errorf("trailing bytes: err = %v", err)
		}
	})
}

// rehash recomputes a tampered stream's trailer so the test exercises
// the structural check behind the hash, not just the hash itself.
func rehash(data []byte) {
	h := fnvSum(data[:len(data)-8])
	data[len(data)-8] = byte(h)
	data[len(data)-7] = byte(h >> 8)
	data[len(data)-6] = byte(h >> 16)
	data[len(data)-5] = byte(h >> 24)
	data[len(data)-4] = byte(h >> 32)
	data[len(data)-3] = byte(h >> 40)
	data[len(data)-2] = byte(h >> 48)
	data[len(data)-1] = byte(h >> 56)
}

func fnvSum(p []byte) uint64 {
	const offset, prime = 14695981039346656037, 1099511628211
	h := uint64(offset)
	for _, b := range p {
		h ^= uint64(b)
		h *= prime
	}
	return h
}

func TestDiff(t *testing.T) {
	a, b := testRecording(), testRecording()
	if d := Diff(a, b); len(d) != 0 {
		t.Fatalf("identical recordings diff: %v", d)
	}
	b.Meta.Checker = "automaton"
	b.Workload.Seed = 7
	b.Outcomes[1].Length = 99
	d := Diff(a, b)
	if len(d) != 3 {
		t.Fatalf("diff = %v, want meta+workload+block lines", d)
	}
	for i, want := range []string{"meta:", "workload:", "block 1:"} {
		if !strings.HasPrefix(d[i], want) {
			t.Errorf("diff[%d] = %q, want prefix %q", i, d[i], want)
		}
	}
	// Outcome-count mismatch short-circuits per-block comparison.
	c := testRecording()
	c.Outcomes = c.Outcomes[:1]
	d = Diff(a, c)
	if len(d) != 1 || !strings.HasPrefix(d[0], "outcomes:") {
		t.Errorf("count diff = %v", d)
	}
}

func TestDiffTruncatesBlockList(t *testing.T) {
	a, b := testRecording(), testRecording()
	a.Outcomes = make([]Outcome, 15)
	b.Outcomes = make([]Outcome, 15)
	for i := range b.Outcomes {
		b.Outcomes[i].Length = 1
	}
	d := Diff(a, b)
	if len(d) != 11 {
		t.Fatalf("diff lines = %d, want 10 blocks + overflow", len(d))
	}
	if !strings.Contains(d[10], "5 more differing blocks") {
		t.Errorf("overflow line = %q", d[10])
	}
}

// countingWriter records each Write call's size, to observe write
// granularity.
type countingWriter struct {
	calls int
	bytes int
}

func (w *countingWriter) Write(p []byte) (int, error) {
	w.calls++
	w.bytes += len(p)
	return len(p), nil
}

// TestWriteIsAtomic pins the sink contract: Write hands the encoded
// recording to the underlying writer in exactly one Write call, so a
// shared sink (pipe, socket, O_APPEND log) sees whole records, never
// fragments.
func TestWriteIsAtomic(t *testing.T) {
	var w countingWriter
	rec := testInlineRecording()
	if _, err := Write(&w, rec); err != nil {
		t.Fatal(err)
	}
	if w.calls != 1 {
		t.Fatalf("Write used %d underlying writes, want 1", w.calls)
	}
	data, _, err := Encode(testInlineRecording())
	if err != nil {
		t.Fatal(err)
	}
	if w.bytes != len(data) {
		t.Fatalf("wrote %d bytes, encoding is %d", w.bytes, len(data))
	}
}

// TestConcurrentWritersInterleaveWholeRecords drives eight goroutines
// through one shared serialized sink and checks every record decodes
// cleanly — the property the single-Write contract exists to provide.
func TestConcurrentWritersInterleaveWholeRecords(t *testing.T) {
	type sink struct {
		mu   sync.Mutex
		recs [][]byte
	}
	s := &sink{}
	write := func(p []byte) {
		s.mu.Lock()
		s.recs = append(s.recs, append([]byte(nil), p...))
		s.mu.Unlock()
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 25; i++ {
				rec := testRecording()
				rec.Workload.Seed = int64(g*100 + i) // distinct content per record
				data, _, err := Encode(rec)
				if err != nil {
					t.Error(err)
					return
				}
				write(data)
			}
		}(g)
	}
	wg.Wait()
	if len(s.recs) != 200 {
		t.Fatalf("sink saw %d records, want 200", len(s.recs))
	}
	seen := make(map[string]bool)
	for _, data := range s.recs {
		rec, err := Decode(data)
		if err != nil {
			t.Fatalf("record does not decode: %v", err)
		}
		seen[rec.ID] = true
	}
	if len(seen) != 200 {
		t.Fatalf("decoded %d distinct trace IDs, want 200", len(seen))
	}
}
