// Package bitset provides the single-word kernels that probe and update
// packed reservation rows: a row is a []uint64 of RowWords words, and a
// packed probe tests, sets or clears one mask against one word of it. The
// acyclic probe plan window and its modulo fold share these kernels, so
// the packed-check semantics have exactly one definition.
package bitset

import "math/bits"

// WordBits is the number of bits per underlying word.
const WordBits = 64

// WordIntersects reports whether word w of words shares any bit with mask.
func WordIntersects(words []uint64, w int, mask uint64) bool {
	return words[w]&mask != 0
}

// WordOr ors mask into word w of words.
func WordOr(words []uint64, w int, mask uint64) {
	words[w] |= mask
}

// WordAndNot clears the bits of mask from word w of words.
func WordAndNot(words []uint64, w int, mask uint64) {
	words[w] &^= mask
}

// FirstBlocked returns the global bit index of the lowest set bit of
// words[w]&mask — the first blocked resource a conflict explanation
// names — or -1 when the word and mask do not intersect.
func FirstBlocked(words []uint64, w int, mask uint64) int {
	v := words[w] & mask
	if v == 0 {
		return -1
	}
	return w*WordBits + bits.TrailingZeros64(v)
}
