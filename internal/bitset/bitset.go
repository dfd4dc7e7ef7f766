// Package bitset provides dense bit sets and fixed-width bit masks used to
// represent the bitmap form of computational subgraphs (CGs) in AdaMBE.
//
// Two flavours are provided:
//
//   - Set: a growable dense bit set over a vertex universe, used for
//     membership structures on the original graph.
//   - Mask: a fixed-width multi-word mask (width decided once per bitmap CG,
//     width = ceil(|L*|/64) words). With the paper's default threshold
//     τ = 64, every mask is a single uint64 and each set intersection is a
//     single AND, exactly as in the paper (§III-B).
//
// All operations are allocation-free unless documented otherwise.
package bitset

import "math/bits"

const (
	// WordBits is the number of bits per machine word used by Set and Mask.
	WordBits = 64
	logWord  = 6
	wordMask = WordBits - 1
)

// WordsFor returns the number of 64-bit words needed to hold n bits.
func WordsFor(n int) int {
	if n <= 0 {
		return 0
	}
	return (n + wordMask) >> logWord
}

// Set is a dense bit set. The zero value is an empty set of capacity 0; use
// New to pre-size it. Sets grow automatically on Add.
type Set struct {
	words []uint64
}

// New returns a Set able to hold members in [0, n) without reallocation.
func New(n int) *Set {
	return &Set{words: make([]uint64, WordsFor(n))}
}

func (s *Set) grow(word int) {
	if word < len(s.words) {
		return
	}
	w := make([]uint64, word+1)
	copy(w, s.words)
	s.words = w
}

// Add inserts i into the set, growing the backing storage if needed.
// i must be non-negative.
func (s *Set) Add(i int) {
	w := i >> logWord
	s.grow(w)
	s.words[w] |= 1 << (uint(i) & wordMask)
}

// Remove deletes i from the set. Removing an absent member is a no-op.
func (s *Set) Remove(i int) {
	w := i >> logWord
	if w < len(s.words) {
		s.words[w] &^= 1 << (uint(i) & wordMask)
	}
}

// Contains reports whether i is a member.
func (s *Set) Contains(i int) bool {
	w := i >> logWord
	return w < len(s.words) && s.words[w]&(1<<(uint(i)&wordMask)) != 0
}

// ClearSlice removes exactly the listed members, touching only their words:
// cheap when the set is sparse relative to its capacity.
func (s *Set) ClearSlice(members []int32) {
	for _, m := range members {
		s.Remove(int(m))
	}
}

// AddSlice inserts every id in members.
func (s *Set) AddSlice(members []int32) {
	for _, m := range members {
		s.Add(int(m))
	}
}

// Mask is a fixed-width bit mask over a small universe (the L* side of a
// bitmap CG). Masks belonging to the same bitmap CG always share a width, so
// binary operations do not re-check lengths beyond the shared word count.
//
// Masks are plain slices: callers carve a bitmap CG's masks out of one
// contiguous buffer to keep the per-node footprint cache-friendly.
type Mask []uint64

// Count returns the population count.
func (m Mask) Count() int {
	n := 0
	for _, w := range m {
		n += bits.OnesCount64(w)
	}
	return n
}

// SubsetOf reports whether m ⊆ o, i.e. (m AND o) == m.
func (m Mask) SubsetOf(o Mask) bool {
	_ = o[len(m)-1]
	for i, w := range m {
		if w&^o[i] != 0 {
			return false
		}
	}
	return true
}

// Set sets bit i.
func (m Mask) Set(i int) { m[i>>logWord] |= 1 << (uint(i) & wordMask) }

// FillLow sets the lowest n bits (the "all of L*" mask).
func (m Mask) FillLow(n int) {
	for i := range m {
		m[i] = 0
	}
	full := n >> logWord
	for i := 0; i < full; i++ {
		m[i] = ^uint64(0)
	}
	if rem := uint(n) & wordMask; rem != 0 {
		m[full] = (1 << rem) - 1
	}
}

// ForEach calls fn with each set bit index in ascending order.
func (m Mask) ForEach(fn func(i int)) {
	for wi, w := range m {
		base := wi << logWord
		for w != 0 {
			fn(base + bits.TrailingZeros64(w))
			w &= w - 1
		}
	}
}
