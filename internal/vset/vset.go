// Package vset provides sorted-vertex-set kernels (merge intersections,
// subset tests, the ordering of a gathered id set) and a stack allocator
// shared by all enumeration engines.
// Slices are int32 vertex ids, sorted ascending and duplicate-free.
package vset

import (
	"math/bits"
	"slices"
	"unsafe"
)

// IntersectInto writes a ∩ b into dst and returns the number of elements
// written. dst must have capacity ≥ min(len(a), len(b)); dst may alias a
// or b (the write position never overtakes either read position).
func IntersectInto(dst, a, b []int32) int {
	if len(a) > len(b) {
		a, b = b, a
	}
	n, i, j := 0, 0, 0
	for i < len(a) && j < len(b) {
		av, bv := a[i], b[j]
		switch {
		case av == bv:
			dst[n] = av
			n++
			i++
			j++
		case av < bv:
			i++
		default:
			j++
		}
	}
	return n
}

// IntersectGallop writes small ∩ large into dst by binary-searching each
// element of small in large, and returns the count. Both inputs sorted
// duplicate-free; intended for |small| ≪ |large| where the merge's
// O(|small|+|large|) scan wastes most of its work.
//
// The probe after the gallop is the branch-free half-interval form: the
// search interval only ever shrinks by `half`, and the single data-
// dependent update (`base += half`) is a conditional add the compiler
// lowers to a CMOV instead of a predicted branch. On the adversarial
// near-uniform neighborhoods of the L ∩ N(v) hot path, mispredicted
// binary-search branches — not memory — dominate the classic form.
func IntersectGallop(dst, small, large []int32) int {
	n := 0
	lo := 0
	for _, x := range small {
		// Galloping upper bound within large[lo:]: exponential steps until
		// large[hi-1] >= x, giving an interval [lo, hi) that holds the
		// lower bound of x.
		step := 1
		hi := lo
		for hi < len(large) && large[hi] < x {
			lo = hi + 1
			hi += step
			step <<= 1
		}
		if hi > len(large) {
			hi = len(large)
		}
		// Branch-free lower bound in [lo, hi]: invariant — the lower bound
		// lies in [base, base+span]. Each iteration halves span with one
		// comparison and a conditional add; the final one-step fixup
		// resolves the two-element ambiguity the loop leaves.
		if span := hi - lo; span > 0 {
			base := lo
			for span > 1 {
				half := span >> 1
				if large[base+half-1] < x {
					base += half
				}
				span -= half
			}
			if large[base] < x {
				base++
			}
			lo = base
		}
		if lo < len(large) && large[lo] == x {
			dst[n] = x
			n++
			lo++
		}
		if lo >= len(large) {
			break
		}
	}
	return n
}

// IntersectLen returns |a ∩ b|.
func IntersectLen(a, b []int32) int {
	if len(a) > len(b) {
		a, b = b, a
	}
	n, i, j := 0, 0, 0
	for i < len(a) && j < len(b) {
		av, bv := a[i], b[j]
		switch {
		case av == bv:
			n++
			i++
			j++
		case av < bv:
			i++
		default:
			j++
		}
	}
	return n
}

// IsSubset reports whether a ⊆ b.
func IsSubset(a, b []int32) bool {
	if len(a) > len(b) {
		return false
	}
	j := 0
	for _, x := range a {
		for j < len(b) && b[j] < x {
			j++
		}
		if j >= len(b) || b[j] != x {
			return false
		}
		j++
	}
	return true
}

// Equal reports whether a and b hold identical elements.
func Equal(a, b []int32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// SortIDs sorts ids, distinct non-negative vertex ids, in ascending order.
// When ScanSorts says so it sets their bits in scratch and reads them back
// by scanning the words between the least and the greatest id; otherwise
// it calls slices.Sort. scratch must hold a bit for every id a caller can
// pass (⌈|V|/64⌉ words) and be all zero; SortIDs leaves it all zero.
func SortIDs(ids []int32, scratch []uint64) {
	if len(ids) < 2 {
		return
	}
	lo, hi := ids[0], ids[0]
	for _, x := range ids[1:] {
		lo = min(lo, x)
		hi = max(hi, x)
	}
	if ScanSorts(len(ids), lo, hi) {
		scanIDs(ids, scratch, lo, hi)
	} else {
		slices.Sort(ids)
	}
}

// scanIDs is SortIDs's scan over the words from lo's to hi's.
func scanIDs(ids []int32, scratch []uint64, lo, hi int32) {
	for _, x := range ids {
		scratch[x>>6] |= 1 << (uint(x) & 63)
	}
	k := 0
	for wi := lo >> 6; wi <= hi>>6; wi++ {
		w := scratch[wi]
		if w == 0 {
			continue
		}
		scratch[wi] = 0
		for base := wi << 6; w != 0; w &= w - 1 {
			ids[k] = base + int32(bits.TrailingZeros64(w))
			k++
		}
	}
}

// ScanSorts reports whether SortIDs orders n ids whose least and greatest
// are lo and hi by a bit-set scan: when the scan reads at most
// n·⌊log₂ n⌋ words, the comparison count of the sort it replaces. Timed
// per suffix on the e2ebench IM- and YG-like graphs (2-vCPU x86-64), it
// picks the slower branch for 1.3% and 6.7% of the suffixes, at a cost of
// 0.1% and 0.2% of the ordering time.
func ScanSorts(n int, lo, hi int32) bool {
	return int(hi>>6-lo>>6)+1 <= n*(bits.Len(uint(n))-1)
}

// Slab is a stack allocator for per-node scratch slices: mark on node
// entry, release when the node's subtree completes. Blocks are retained
// across releases so steady-state enumeration does not allocate.
type Slab[T any] struct {
	blocks [][]T
	bi     int // current block index
	off    int // offset in current block

	// OnGrow, if non-nil, is told the size in bytes of every new block the
	// slab retains. Blocks are never returned, so the sum of reported sizes
	// is the slab's live footprint — the hook behind the engines' soft
	// memory budget. Set it before the first Alloc.
	OnGrow func(bytes int64)
}

const slabMinBlock = 1 << 14

// Mark is a position in a Slab that Release can rewind to.
type Mark struct{ bi, off int }

// Mark returns the current position.
func (s *Slab[T]) Mark() Mark { return Mark{s.bi, s.off} }

// Release rewinds the slab to a previous Mark, freeing everything
// allocated since.
func (s *Slab[T]) Release(m Mark) { s.bi, s.off = m.bi, m.off }

// Alloc returns an uninitialized slice of length n carved from the slab.
func (s *Slab[T]) Alloc(n int) []T {
	if len(s.blocks) == 0 {
		s.blocks = append(s.blocks, make([]T, slabMinBlock))
		s.grew(slabMinBlock)
	}
	for s.off+n > len(s.blocks[s.bi]) {
		if s.bi+1 < len(s.blocks) {
			s.bi++
			s.off = 0
			continue
		}
		size := len(s.blocks[s.bi]) * 2
		for size < n {
			size *= 2
		}
		s.blocks = append(s.blocks, make([]T, size))
		s.grew(size)
		s.bi++
		s.off = 0
	}
	b := s.blocks[s.bi][s.off : s.off+n : s.off+n]
	s.off += n
	return b
}

// ShrinkLast gives back the unused tail of the most recent Alloc: the
// caller allocated `allocated`, used `used`, and the slab reclaims the
// difference. Only valid immediately after the corresponding Alloc.
func (s *Slab[T]) ShrinkLast(allocated, used int) {
	s.off -= allocated - used
}

func (s *Slab[T]) grew(elems int) {
	if s.OnGrow != nil {
		var zero T
		s.OnGrow(int64(elems) * int64(unsafe.Sizeof(zero)))
	}
}
