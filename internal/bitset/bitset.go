// Package bitset provides small, fixed-width bit vectors used by the
// resource-usage map and by packed reservation-table options.
//
// The four machines modeled in this repository each use fewer than 64
// abstract resources, so most sets occupy a single word, but the type
// supports arbitrary widths so user-authored machine descriptions are not
// artificially limited.
package bitset

import (
	"fmt"
	"math/bits"
	"strings"
)

// Set is a fixed-width bit vector. The zero value is an empty set of width
// zero; use New to create a set wide enough for a given number of bits.
type Set struct {
	words []uint64
	n     int // number of valid bits
}

// WordBits is the number of bits per underlying word.
const WordBits = 64

// New returns an empty Set capable of holding n bits.
func New(n int) Set {
	if n < 0 {
		panic(fmt.Sprintf("bitset: negative width %d", n))
	}
	return Set{words: make([]uint64, (n+WordBits-1)/WordBits), n: n}
}

// FromMask returns a single-word Set of width n (n <= 64) initialized to mask.
func FromMask(mask uint64, n int) Set {
	if n > WordBits {
		panic(fmt.Sprintf("bitset: FromMask width %d exceeds %d", n, WordBits))
	}
	s := New(n)
	if len(s.words) > 0 {
		s.words[0] = mask
	}
	return s
}

// Len returns the width of the set in bits.
func (s Set) Len() int { return s.n }

// Words returns the number of underlying words.
func (s Set) Words() int { return len(s.words) }

// Set sets bit i.
func (s *Set) Set(i int) {
	s.check(i)
	s.words[i/WordBits] |= 1 << uint(i%WordBits)
}

// Clear clears bit i.
func (s *Set) Clear(i int) {
	s.check(i)
	s.words[i/WordBits] &^= 1 << uint(i%WordBits)
}

// Test reports whether bit i is set.
func (s Set) Test(i int) bool {
	s.check(i)
	return s.words[i/WordBits]&(1<<uint(i%WordBits)) != 0
}

func (s Set) check(i int) {
	if i < 0 || i >= s.n {
		panic(fmt.Sprintf("bitset: index %d out of range [0,%d)", i, s.n))
	}
}

// Reset clears all bits in place.
func (s *Set) Reset() {
	for i := range s.words {
		s.words[i] = 0
	}
}

// Clone returns an independent copy of s.
func (s Set) Clone() Set {
	w := make([]uint64, len(s.words))
	copy(w, s.words)
	return Set{words: w, n: s.n}
}

// CopyFrom overwrites s with the contents of other, which must have the same
// width.
func (s *Set) CopyFrom(other Set) {
	s.sameWidth(other)
	copy(s.words, other.words)
}

// Or sets s to the union of s and other.
func (s *Set) Or(other Set) {
	s.sameWidth(other)
	for i, w := range other.words {
		s.words[i] |= w
	}
}

// AndNot clears every bit of s that is set in other.
func (s *Set) AndNot(other Set) {
	s.sameWidth(other)
	for i, w := range other.words {
		s.words[i] &^= w
	}
}

// Intersects reports whether s and other share any set bit.
func (s Set) Intersects(other Set) bool {
	s.sameWidth(other)
	for i, w := range other.words {
		if s.words[i]&w != 0 {
			return true
		}
	}
	return false
}

// IntersectsMask reports whether word w of s shares any bit with mask.
// It is the single-word fast path used by packed option checking.
func (s Set) IntersectsMask(w int, mask uint64) bool {
	return WordIntersects(s.words, w, mask)
}

// OrMask ors mask into word w of s.
func (s *Set) OrMask(w int, mask uint64) {
	WordOr(s.words, w, mask)
}

// AndNotMask clears the bits of mask from word w of s.
func (s *Set) AndNotMask(w int, mask uint64) {
	WordAndNot(s.words, w, mask)
}

// Raw-word kernels. The modulo map keeps rows as Sets while the flat
// probe plan keeps a single row-major []uint64; both probe with the same
// single-word operations, shared here so the packed-check semantics have
// exactly one definition.

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

// Contains reports whether every set bit of other is also set in s.
func (s Set) Contains(other Set) bool {
	s.sameWidth(other)
	for i, w := range other.words {
		if s.words[i]&w != w {
			return false
		}
	}
	return true
}

// Equal reports whether s and other have identical width and contents.
func (s Set) Equal(other Set) bool {
	if s.n != other.n {
		return false
	}
	for i, w := range other.words {
		if s.words[i] != w {
			return false
		}
	}
	return true
}

// Count returns the number of set bits.
func (s Set) Count() int {
	c := 0
	for _, w := range s.words {
		c += bits.OnesCount64(w)
	}
	return c
}

// Empty reports whether no bit is set.
func (s Set) Empty() bool {
	for _, w := range s.words {
		if w != 0 {
			return false
		}
	}
	return true
}

// ForEach calls fn with the index of every set bit, in increasing order.
func (s Set) ForEach(fn func(i int)) {
	for wi, w := range s.words {
		for w != 0 {
			b := bits.TrailingZeros64(w)
			fn(wi*WordBits + b)
			w &= w - 1
		}
	}
}

// String renders the set as a list of set-bit indices, e.g. "{0 3 17}".
func (s Set) String() string {
	var b strings.Builder
	b.WriteByte('{')
	first := true
	s.ForEach(func(i int) {
		if !first {
			b.WriteByte(' ')
		}
		first = false
		fmt.Fprintf(&b, "%d", i)
	})
	b.WriteByte('}')
	return b.String()
}

func (s Set) sameWidth(other Set) {
	if s.n != other.n {
		panic(fmt.Sprintf("bitset: width mismatch %d vs %d", s.n, other.n))
	}
}
