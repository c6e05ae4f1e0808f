package flight_test

import (
	"testing"

	"mdes/internal/obs"
	"mdes/internal/obs/flight"
	"mdes/internal/stats"
)

// A context's full ring spills into the recorder before it is
// overwritten, so no block is lost however long the borrow: every block
// reaches the recorder, oldest first, with consecutive merge sequence
// numbers.
func TestLocalRingWrap(t *testing.T) {
	r := flight.NewRecorder(flight.Config{PerContext: 4})
	l := (&obs.Views{Flight: r}).NewLocal()
	l.Begin()
	for i := int64(0); i < 7; i++ {
		l.BlockDone(obs.PhaseList, i, 1, 1, stats.Counters{Attempts: 1})
		if want := (i + 1) / 4 * 4; r.Blocks() != want {
			t.Fatalf("after %d blocks the recorder holds %d, want %d (spill on a full ring)", i+1, r.Blocks(), want)
		}
	}
	l.Merge()
	s := r.Snapshot()
	if s.Blocks != 7 || len(s.Recent) != 7 {
		t.Fatalf("recorder holds %d blocks (%d recent), want all 7", s.Blocks, len(s.Recent))
	}
	for i, e := range s.Recent {
		if e.Block != int64(i) || e.Seq != int64(i+1) {
			t.Fatalf("recent[%d] = block %d seq %d, want block %d seq %d", i, e.Block, e.Seq, i, i+1)
		}
	}
	l.Begin()
	l.Merge()
	if got := r.Blocks(); got != 7 {
		t.Fatalf("an empty borrow added blocks: %d", got)
	}
}
