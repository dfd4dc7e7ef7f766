package vset

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
)

func randSorted(rng *rand.Rand, n, space int) []int32 {
	seen := map[int32]bool{}
	out := make([]int32, 0, n)
	for len(out) < n {
		x := int32(rng.Intn(space))
		if !seen[x] {
			seen[x] = true
			out = append(out, x)
		}
	}
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j-1] > out[j]; j-- {
			out[j-1], out[j] = out[j], out[j-1]
		}
	}
	return out
}

// The merge-intersection kernel at the three shapes the enumeration hits:
// balanced lists, skewed lists, and tiny-vs-large.
func BenchmarkIntersect(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	shapes := []struct {
		name   string
		na, nb int
	}{
		{"64x64", 64, 64},
		{"64x1024", 64, 1024},
		{"1024x1024", 1024, 1024},
		{"8x4096", 8, 4096},
	}
	for _, s := range shapes {
		a := randSorted(rng, s.na, 1<<16)
		c := randSorted(rng, s.nb, 1<<16)
		dst := make([]int32, min(s.na, s.nb))
		b.Run("Into/"+s.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				IntersectInto(dst, a, c)
			}
		})
		b.Run("Len/"+s.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				IntersectLen(a, c)
			}
		})
	}
}

// BenchmarkIntersectGallop isolates the gallop kernel (small-vs-large with
// the branch-free binary probe) at increasing skew; the merge kernel at the
// same shapes is the baseline the adaptive cutoff switches away from.
func BenchmarkIntersectGallop(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	shapes := []struct {
		name   string
		na, nb int
	}{
		{"8x1024", 8, 1024},
		{"8x16384", 8, 16384},
		{"64x16384", 64, 16384},
	}
	for _, s := range shapes {
		a := randSorted(rng, s.na, 1<<20)
		c := randSorted(rng, s.nb, 1<<20)
		dst := make([]int32, s.na)
		b.Run("Gallop/"+s.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				IntersectGallop(dst, a, c)
			}
		})
		b.Run("Merge/"+s.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				IntersectInto(dst, a, c)
			}
		})
	}
}

func BenchmarkSlabAllocRelease(b *testing.B) {
	var s Slab[int32]
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		m := s.Mark()
		for j := 0; j < 32; j++ {
			buf := s.Alloc(64)
			buf[0] = int32(j)
		}
		s.Release(m)
	}
}

// BenchmarkSlabVsMake quantifies the design choice DESIGN.md calls out:
// slab-stack allocation versus per-node make for the enumeration scratch.
func BenchmarkSlabVsMake(b *testing.B) {
	b.Run("slab", func(b *testing.B) {
		var s Slab[int32]
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			m := s.Mark()
			buf := s.Alloc(256)
			buf[255] = 1
			s.Release(m)
		}
	})
	b.Run("make", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			buf := make([]int32, 256)
			buf[255] = 1
			_ = buf
		}
	})
}

// BenchmarkSortIDs times the suffix ordering's two branches, the bit-set
// scan and slices.Sort, on n distinct shuffled ids spread over a span of
// words at, below and above the bound ScanSorts puts between them
// (n·⌊log₂ n⌋ words: 8 for n = 4, 384 for n = 64). Every iteration
// re-shuffles by copying the input back, in both arms.
func BenchmarkSortIDs(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	shapes := []struct{ n, words int }{
		{4, 4}, {4, 8}, {4, 64}, {4, 4096},
		{64, 64}, {64, 256}, {64, 384}, {64, 1024}, {64, 4096},
	}
	for _, s := range shapes {
		ids := randIDs(rng, s.n, 0, int32(s.words*64))
		lo, hi := slices.Min(ids), slices.Max(ids)
		scratch := make([]uint64, s.words)
		buf := make([]int32, s.n)
		name := fmt.Sprintf("n%d/words%d", s.n, s.words)
		b.Run("Scan/"+name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				copy(buf, ids)
				scanIDs(buf, scratch, lo, hi)
			}
		})
		b.Run("Sort/"+name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				copy(buf, ids)
				slices.Sort(buf)
			}
		})
	}
}
