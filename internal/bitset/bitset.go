// Package bitset implements a dense bit set over non-negative integers,
// used to represent sets of scan cells (failing cells, candidate cells,
// partition groups) compactly and to intersect them quickly during
// diagnosis.
package bitset

import (
	"fmt"
	"math/bits"
	"strings"
)

// Set is a growable bit set. The zero value is an empty set ready to use.
type Set struct {
	words []uint64
}

// New returns a set sized for elements in [0, n); it grows on demand.
func New(n int) *Set {
	return &Set{words: make([]uint64, (n+63)/64)}
}

// FromSlice builds a set from element indices.
func FromSlice(elems []int) *Set {
	s := &Set{}
	for _, e := range elems {
		s.Add(e)
	}
	return s
}

func (s *Set) grow(word int) {
	for len(s.words) <= word {
		s.words = append(s.words, 0)
	}
}

// Add inserts i. Negative indices panic: they always indicate a logic error
// in the caller.
func (s *Set) Add(i int) {
	if i < 0 {
		panic(fmt.Sprintf("bitset: negative element %d", i))
	}
	s.grow(i / 64)
	s.words[i/64] |= 1 << uint(i%64)
}

// Remove deletes i if present.
func (s *Set) Remove(i int) {
	if i < 0 || i/64 >= len(s.words) {
		return
	}
	s.words[i/64] &^= 1 << uint(i%64)
}

// Contains reports whether i is in the set.
func (s *Set) Contains(i int) bool {
	if i < 0 || i/64 >= len(s.words) {
		return false
	}
	return s.words[i/64]>>uint(i%64)&1 == 1
}

// Words returns the set's backing words: element i is bit i%64 of word
// i/64. The slice aliases the set, so writes through it change the set.
// It serves word-parallel algorithms over sets built with New at a known
// size; an Add that grows the set leaves it stale.
func (s *Set) Words() []uint64 { return s.words }

// Len returns the number of elements.
func (s *Set) Len() int {
	n := 0
	for _, w := range s.words {
		n += bits.OnesCount64(w)
	}
	return n
}

// Empty reports whether the set has no elements.
func (s *Set) Empty() bool {
	for _, w := range s.words {
		if w != 0 {
			return false
		}
	}
	return true
}

// Reset removes every element, keeping the allocated capacity — the
// building block for buffer reuse in the diagnosis hot loop.
func (s *Set) Reset() {
	for i := range s.words {
		s.words[i] = 0
	}
}

// Clone returns an independent copy.
func (s *Set) Clone() *Set {
	w := make([]uint64, len(s.words))
	copy(w, s.words)
	return &Set{words: w}
}

// IntersectWith removes from s every element not in t.
func (s *Set) IntersectWith(t *Set) {
	for i := range s.words {
		if i < len(t.words) {
			s.words[i] &= t.words[i]
		} else {
			s.words[i] = 0
		}
	}
}

// UnionWith adds every element of t to s.
func (s *Set) UnionWith(t *Set) {
	s.grow(len(t.words) - 1)
	for i, w := range t.words {
		s.words[i] |= w
	}
}

// SubtractWith removes every element of t from s.
func (s *Set) SubtractWith(t *Set) {
	n := len(s.words)
	if len(t.words) < n {
		n = len(t.words)
	}
	for i := 0; i < n; i++ {
		s.words[i] &^= t.words[i]
	}
}

// IntersectsWith reports whether s and t share any element.
func (s *Set) IntersectsWith(t *Set) bool {
	n := len(s.words)
	if len(t.words) < n {
		n = len(t.words)
	}
	for i := 0; i < n; i++ {
		if s.words[i]&t.words[i] != 0 {
			return true
		}
	}
	return false
}

// SupersetOf reports whether s contains every element of t.
func (s *Set) SupersetOf(t *Set) bool {
	for i, w := range t.words {
		var sw uint64
		if i < len(s.words) {
			sw = s.words[i]
		}
		if w&^sw != 0 {
			return false
		}
	}
	return true
}

// Equal reports whether s and t contain the same elements.
func (s *Set) Equal(t *Set) bool {
	longer, shorter := s.words, t.words
	if len(shorter) > len(longer) {
		longer, shorter = shorter, longer
	}
	for i, w := range shorter {
		if w != longer[i] {
			return false
		}
	}
	for _, w := range longer[len(shorter):] {
		if w != 0 {
			return false
		}
	}
	return true
}

// ForEach calls fn for each element in ascending order without allocating.
func (s *Set) ForEach(fn func(int)) {
	for wi, w := range s.words {
		for w != 0 {
			b := bits.TrailingZeros64(w)
			fn(wi*64 + b)
			w &= w - 1
		}
	}
}

// Elems returns the elements in ascending order.
func (s *Set) Elems() []int {
	out := make([]int, 0, s.Len())
	for wi, w := range s.words {
		for w != 0 {
			b := bits.TrailingZeros64(w)
			out = append(out, wi*64+b)
			w &= w - 1
		}
	}
	return out
}

// Min returns the smallest element, or -1 if the set is empty.
func (s *Set) Min() int {
	for wi, w := range s.words {
		if w != 0 {
			return wi*64 + bits.TrailingZeros64(w)
		}
	}
	return -1
}

// Max returns the largest element, or -1 if the set is empty.
func (s *Set) Max() int {
	for wi := len(s.words) - 1; wi >= 0; wi-- {
		if w := s.words[wi]; w != 0 {
			return wi*64 + 63 - bits.LeadingZeros64(w)
		}
	}
	return -1
}

// String renders the set as "{1, 5, 9}".
func (s *Set) String() string {
	var b strings.Builder
	b.WriteByte('{')
	for i, e := range s.Elems() {
		if i > 0 {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, "%d", e)
	}
	b.WriteByte('}')
	return b.String()
}
