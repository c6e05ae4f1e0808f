package bitset

import "testing"

func TestMaskOps(t *testing.T) {
	row := make([]uint64, 2)
	WordOr(row, 1, 0b101)
	if row[0] != 0 || row[1] != 0b101 {
		t.Fatalf("WordOr wrong bits: %#x", row)
	}
	if !WordIntersects(row, 1, 0b100) {
		t.Fatalf("WordIntersects false negative")
	}
	if WordIntersects(row, 0, ^uint64(0)) {
		t.Fatalf("WordIntersects false positive in word 0")
	}
	if b := FirstBlocked(row, 1, 0b110); b != 66 {
		t.Fatalf("FirstBlocked = %d, want 66", b)
	}
	if b := FirstBlocked(row, 1, 0b010); b != -1 {
		t.Fatalf("FirstBlocked on a free mask = %d, want -1", b)
	}
	WordAndNot(row, 1, 0b1)
	if row[1] != 0b100 {
		t.Fatalf("WordAndNot wrong result: %#x", row)
	}
}
