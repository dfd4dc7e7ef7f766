package bitset

import (
	"math/rand"
	"testing"
)

// kernelStrides covers every dedicated unrolled kernel (2–4 words) plus the
// strides on either side that fall through to the generic loop.
var kernelStrides = []int{1, 2, 3, 4, 5}

// packedFixture builds packed mask storage for nMasks masks of the given
// stride, plus the per-mask refSet oracle. Width is stride*64 minus a few
// bits so partial-word handling is exercised at strides > 1.
func packedFixture(rng *rand.Rand, stride, nMasks int) ([]uint64, []refSet, int) {
	width := stride*64 - 3
	if stride == 1 {
		width = 64
	}
	packed := make([]uint64, stride*nMasks)
	refs := make([]refSet, nMasks)
	for k := 0; k < nMasks; k++ {
		refs[k] = randomRef(rng, width, 0.3)
		m := Mask(packed[k*stride : (k+1)*stride])
		for i := range refs[k] {
			m.Set(i)
		}
	}
	return packed, refs, width
}

func refRel(lq, m refSet) Rel {
	if lq.subsetOf(m) {
		return RelSubset
	}
	if lq.and(m).popcount() != 0 {
		return RelOverlap
	}
	return RelDisjoint
}

func TestPackedKernelsAgainstOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, stride := range kernelStrides {
		for trial := 0; trial < 30; trial++ {
			const nMasks = 40
			packed, refs, width := packedFixture(rng, stride, nMasks)

			// Query density varies so all three relations occur: sparse
			// queries produce subsets, dense ones disjoint/overlap.
			lqRef := randomRef(rng, width, []float64{0.05, 0.3, 0.8}[trial%3])
			lq := make([]uint64, stride)
			for i := range lqRef {
				Mask(lq).Set(i)
			}

			ks := make([]int32, 0, nMasks)
			for k := 0; k < nMasks; k++ {
				if rng.Intn(3) > 0 {
					ks = append(ks, int32(k))
				}
			}

			// AndPacked per mask.
			dst := make([]uint64, stride)
			for _, k := range ks {
				AndPacked(dst, lq, packed, stride, k)
				want := lqRef.and(refs[k])
				if got := Mask(dst).Count(); got != want.popcount() {
					t.Fatalf("stride %d: AndPacked(k=%d) count %d, want %d", stride, k, got, want.popcount())
				}
				for _, i := range maskBits(dst) {
					if !want[i] {
						t.Fatalf("stride %d: AndPacked(k=%d) set stray bit %d", stride, k, i)
					}
				}
			}

			// ClassifyPacked vs per-mask oracle relation.
			out := make([]Rel, len(ks))
			ClassifyPacked(lq, packed, stride, ks, out)
			for i, k := range ks {
				if want := refRel(lqRef, refs[k]); out[i] != want {
					t.Fatalf("stride %d: ClassifyPacked ks[%d]=%d got %d, want %d", stride, i, k, out[i], want)
				}
			}

			// FirstSupersetPacked: index of the first RelSubset, or -1.
			wantFirst := -1
			for i, k := range ks {
				if lqRef.subsetOf(refs[k]) {
					wantFirst = i
					break
				}
			}
			if got := FirstSupersetPacked(lq, packed, stride, ks); got != wantFirst {
				t.Fatalf("stride %d: FirstSupersetPacked got %d, want %d", stride, got, wantFirst)
			}

			// FilterIntersectsPacked: order-preserving overlap filter.
			filt := make([]int32, len(ks))
			n := FilterIntersectsPacked(lq, packed, stride, ks, filt)
			var wantFilt []int32
			for _, k := range ks {
				if lqRef.and(refs[k]).popcount() != 0 {
					wantFilt = append(wantFilt, k)
				}
			}
			if n != len(wantFilt) {
				t.Fatalf("stride %d: FilterIntersectsPacked kept %d, want %d", stride, n, len(wantFilt))
			}
			for i := range wantFilt {
				if filt[i] != wantFilt[i] {
					t.Fatalf("stride %d: FilterIntersectsPacked[%d] = %d, want %d", stride, i, filt[i], wantFilt[i])
				}
			}
		}
	}
}

// TestDropCoveredPackedAgainstOracle checks the rule-3 compaction against
// the set definition: k stays iff lp ∩ mask(k) ⊄ lq, in its original order.
func TestDropCoveredPackedAgainstOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	kept, dropped := 0, 0
	for _, stride := range kernelStrides {
		for trial := 0; trial < 40; trial++ {
			const nMasks = 40
			packed, refs, width := packedFixture(rng, stride, nMasks)
			lqRef := randomRef(rng, width, 0.3)
			lpRef := randomRef(rng, width, 0.5) // unrelated to lq
			if trial%5 != 4 {
				// lq plus a few more bits, as for a node and its child.
				lpRef = randomRef(rng, width, []float64{0, 0.01, 0.05, 0.3}[trial%4])
				for i := range lqRef {
					lpRef[i] = true
				}
			}
			lp, lq := maskFromRef(lpRef, width), maskFromRef(lqRef, width)

			var ks, want []int32
			for k := 0; k < nMasks; k++ {
				if rng.Intn(4) == 0 {
					continue
				}
				ks = append(ks, int32(k))
				if !lpRef.and(refs[k]).subsetOf(lqRef) {
					want = append(want, int32(k))
				}
			}
			n := DropCoveredPacked(lp, lq, packed, stride, ks)
			if n != len(want) {
				t.Fatalf("stride %d trial %d: kept %d, want %d", stride, trial, n, len(want))
			}
			for i := range want {
				if ks[i] != want[i] {
					t.Fatalf("stride %d trial %d: ks[%d] = %d, want %d", stride, trial, i, ks[i], want[i])
				}
			}
			kept += n
			dropped += len(ks) - n
		}
	}
	if kept == 0 || dropped == 0 {
		t.Fatalf("kept %d, dropped %d: the fixture must produce both outcomes", kept, dropped)
	}
}

// TestFirstSupersetPackedEmptyQuery pins the degenerate case the core hot
// path can hit: an all-zero L_q is a subset of every mask, so the first
// listed index must be returned (index 0 when ks is non-empty).
func TestFirstSupersetPackedEmptyQuery(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for _, stride := range kernelStrides {
		packed, _, _ := packedFixture(rng, stride, 4)
		lq := make([]uint64, stride)
		if got := FirstSupersetPacked(lq, packed, stride, []int32{2, 0, 3}); got != 0 {
			t.Fatalf("stride %d: empty query should match first index, got %d", stride, got)
		}
		if got := FirstSupersetPacked(lq, packed, stride, nil); got != -1 {
			t.Fatalf("stride %d: empty ks should return -1, got %d", stride, got)
		}
	}
}
