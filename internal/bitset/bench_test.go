package bitset

import (
	"fmt"
	"math/rand"
	"testing"
)

// Kernel micro-benchmarks: the per-word cost of the packed batched kernels
// versus the per-vertex Mask-method loops they replaced, at each unrolled
// stride. Run via `make bench-kernels`. The interesting comparisons:
//
//	BenchmarkClassifyPacked vs BenchmarkClassifyPerVertex — batching win
//	BenchmarkMaskAndCount vs BenchmarkMaskAndThenCount    — fusion win
//	stride sweep 1/2/4 — word-width scaling of the unrolled kernels

const benchMasks = 256

func benchFixture(stride int) (lq, packed []uint64, ks []int32) {
	rng := rand.New(rand.NewSource(42))
	packed = make([]uint64, stride*benchMasks)
	for i := range packed {
		packed[i] = rng.Uint64()
	}
	lq = make([]uint64, stride)
	for i := range lq {
		lq[i] = rng.Uint64()
	}
	ks = make([]int32, benchMasks)
	for i := range ks {
		ks[i] = int32(i)
	}
	return
}

func strideName(stride int) string { return fmt.Sprintf("words=%d", stride) }

// maskIntersectsSlow reproduces the word loop the core engine used before
// the batched kernels (core's old maskIntersects helper).
func maskIntersectsSlow(a, b Mask) bool {
	for i := range a {
		if a[i]&b[i] != 0 {
			return true
		}
	}
	return false
}

func BenchmarkClassifyPacked(b *testing.B) {
	for _, stride := range []int{1, 2, 4} {
		b.Run(strideName(stride), func(b *testing.B) {
			lq, packed, ks := benchFixture(stride)
			out := make([]Rel, len(ks))
			b.SetBytes(int64(stride * 8 * len(ks)))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				ClassifyPacked(lq, packed, stride, ks, out)
			}
		})
	}
}

// BenchmarkClassifyPerVertex is the pre-batching shape: per candidate, a
// Mask header materialized from packed storage and two method calls
// (intersection test + subset test), with lq re-read each iteration.
func BenchmarkClassifyPerVertex(b *testing.B) {
	for _, stride := range []int{1, 2, 4} {
		b.Run(strideName(stride), func(b *testing.B) {
			lq, packed, ks := benchFixture(stride)
			out := make([]Rel, len(ks))
			lqm := Mask(lq)
			b.SetBytes(int64(stride * 8 * len(ks)))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for j, k := range ks {
					m := Mask(packed[int(k)*stride : (int(k)+1)*stride])
					if lqm.SubsetOf(m) {
						out[j] = RelSubset
					} else if maskIntersectsSlow(lqm, m) {
						out[j] = RelOverlap
					} else {
						out[j] = RelDisjoint
					}
				}
			}
		})
	}
}

func BenchmarkFirstSupersetPacked(b *testing.B) {
	for _, stride := range []int{1, 2, 4} {
		b.Run(strideName(stride), func(b *testing.B) {
			lq, packed, ks := benchFixture(stride)
			// Random fixture masks are ~50% dense, lq too: supersets are
			// vanishingly rare, so this measures the full-scan (no early
			// exit) path, which is the common case in enumeration.
			b.SetBytes(int64(stride * 8 * len(ks)))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				FirstSupersetPacked(lq, packed, stride, ks)
			}
		})
	}
}

func BenchmarkFilterIntersectsPacked(b *testing.B) {
	for _, stride := range []int{1, 2, 4} {
		b.Run(strideName(stride), func(b *testing.B) {
			lq, packed, ks := benchFixture(stride)
			dst := make([]int32, len(ks))
			b.SetBytes(int64(stride * 8 * len(ks)))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				FilterIntersectsPacked(lq, packed, stride, ks, dst)
			}
		})
	}
}

// BenchmarkDropCoveredPacked compacts a fresh copy of the block each
// iteration; lp is lq with a few more bits, as for a parent and its
// child, so some masks are kept and some dropped.
func BenchmarkDropCoveredPacked(b *testing.B) {
	for _, stride := range []int{1, 2, 4} {
		b.Run(strideName(stride), func(b *testing.B) {
			lq, packed, ks := benchFixture(stride)
			lp := make([]uint64, stride)
			for w := range lp {
				lp[w] = lq[w] | 1<<uint(w*7)
			}
			block := make([]int32, len(ks))
			b.SetBytes(int64(stride * 8 * len(ks)))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				copy(block, ks)
				DropCoveredPacked(lp, lq, packed, stride, block)
			}
		})
	}
}

func BenchmarkMaskAndCount(b *testing.B) {
	for _, stride := range []int{1, 2, 4} {
		b.Run(strideName(stride), func(b *testing.B) {
			lq, packed, _ := benchFixture(stride)
			dst := make(Mask, stride)
			m := Mask(packed[:stride])
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				MaskAndCount(dst, Mask(lq), m)
			}
		})
	}
}

// BenchmarkMaskAndThenCount is the unfused shape: AND into dst, then a
// second pass to popcount it.
func BenchmarkMaskAndThenCount(b *testing.B) {
	for _, stride := range []int{1, 2, 4} {
		b.Run(strideName(stride), func(b *testing.B) {
			lq, packed, _ := benchFixture(stride)
			dst := make(Mask, stride)
			m := Mask(packed[:stride])
			var sink int
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				MaskAnd(dst, Mask(lq), m)
				sink += dst.Count()
			}
			_ = sink
		})
	}
}
