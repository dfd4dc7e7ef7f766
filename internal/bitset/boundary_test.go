package bitset

import (
	"math/rand"
	"testing"
)

// boundaryWidths are the universe sizes that straddle 64-bit word
// boundaries: one bit short of a word, exactly one/two/four words, and one
// bit over. Off-by-one bugs in the word/bit index arithmetic or in partial
// last-word handling show up exactly here. 129/255/256 exercise the 3- and
// 4-word unrolled kernels (SmallStrideMax) and the seam just past them.
var boundaryWidths = []int{63, 64, 65, 127, 128, 129, 255, 256}

// refSet is the oracle: a plain map-backed set.
type refSet map[int]bool

func (r refSet) popcount() int { return len(r) }

func (r refSet) subsetOf(o refSet) bool {
	for i := range r {
		if !o[i] {
			return false
		}
	}
	return true
}

func (r refSet) and(o refSet) refSet {
	out := refSet{}
	for i := range r {
		if o[i] {
			out[i] = true
		}
	}
	return out
}

func randomRef(rng *rand.Rand, width int, density float64) refSet {
	r := refSet{}
	for i := 0; i < width; i++ {
		if rng.Float64() < density {
			r[i] = true
		}
	}
	return r
}

// ids lists r's members as the []int32 the slice methods take.
func ids(r refSet) []int32 {
	var out []int32
	for i := range r {
		out = append(out, int32(i))
	}
	return out
}

func setFromRef(r refSet, width int) *Set {
	s := New(width)
	for i := range r {
		s.Add(i)
	}
	return s
}

func maskFromRef(r refSet, width int) Mask {
	m := make(Mask, WordsFor(width))
	for i := range r {
		m.Set(i)
	}
	return m
}

// maskBits lists m's set bits in the order ForEach visits them.
func maskBits(m Mask) []int {
	var out []int
	m.ForEach(func(i int) { out = append(out, i) })
	return out
}

// checkSet fails unless s holds exactly r within [0, width).
func checkSet(t *testing.T, s *Set, r refSet, width int, what string) {
	t.Helper()
	for i := 0; i < width; i++ {
		if s.Contains(i) != r[i] {
			t.Fatalf("width %d: %s: Contains(%d) = %v, want %v", width, what, i, s.Contains(i), r[i])
		}
	}
}

func TestSetBoundaryWidths(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, width := range boundaryWidths {
		for trial := 0; trial < 50; trial++ {
			ra := randomRef(rng, width, 0.4)
			rb := randomRef(rng, width, 0.4)
			a := setFromRef(ra, width)
			checkSet(t, a, ra, width, "Add")
			b := New(width)
			b.AddSlice(ids(rb))
			checkSet(t, b, rb, width, "AddSlice")

			for i := 0; i < width; i++ {
				if !b.Contains(i) {
					a.Remove(i)
				}
			}
			checkSet(t, a, ra.and(rb), width, "AND via Remove")
			b.ClearSlice(ids(ra))
			diff := refSet{}
			for i := range rb {
				if !ra[i] {
					diff[i] = true
				}
			}
			checkSet(t, b, diff, width, "ClearSlice")
		}
	}
}

// TestSetBoundaryBitIsolated verifies that setting only the last valid bit
// of each width (and its neighbors across the word seam) never bleeds into
// adjacent bits.
func TestSetBoundaryBitIsolated(t *testing.T) {
	for _, width := range boundaryWidths {
		for _, i := range []int{0, width - 1, width / 2} {
			s := New(width)
			s.Add(i)
			checkSet(t, s, refSet{i: true}, width, "Add one bit")
			s.Remove(i)
			checkSet(t, s, refSet{}, width, "Remove it")
		}
	}
}

func TestMaskBoundaryWidths(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for _, width := range boundaryWidths {
		for trial := 0; trial < 50; trial++ {
			ra := randomRef(rng, width, 0.4)
			rb := randomRef(rng, width, 0.4)
			a, b := maskFromRef(ra, width), maskFromRef(rb, width)

			if got, want := a.Count(), ra.popcount(); got != want {
				t.Fatalf("width %d: Count %d, want %d", width, got, want)
			}
			got := maskBits(a)
			if len(got) != len(ra) {
				t.Fatalf("width %d: ForEach visited %d bits, want %d", width, len(got), len(ra))
			}
			for k, i := range got {
				if !ra[i] || (k > 0 && got[k-1] >= i) {
					t.Fatalf("width %d: ForEach visited %v", width, got)
				}
			}
			if got, want := a.SubsetOf(b), ra.subsetOf(rb); got != want {
				t.Fatalf("width %d: SubsetOf %v, want %v", width, got, want)
			}
			inter := maskFromRef(ra.and(rb), width)
			if !inter.SubsetOf(a) || !inter.SubsetOf(b) {
				t.Fatalf("width %d: intersection not a subset of its operands", width)
			}
		}
	}
}

// TestMaskFillLowBoundary pins FillLow's partial-last-word handling: n
// exactly at, one under, and one over each word boundary.
func TestMaskFillLowBoundary(t *testing.T) {
	for _, width := range boundaryWidths {
		words := WordsFor(width)
		m := make(Mask, words)
		for _, n := range []int{0, 1, 63, 64, min(65, width), width - 1, width} {
			if n > width {
				continue
			}
			// Pre-dirty the mask so FillLow must clear high bits too.
			for i := range m {
				m[i] = ^uint64(0)
			}
			m.FillLow(n)
			if got := m.Count(); got != n {
				t.Fatalf("width %d: FillLow(%d) set %d bits", width, n, got)
			}
			for k, i := range maskBits(m) {
				if i != k {
					t.Fatalf("width %d: FillLow(%d) set bit %d", width, n, i)
				}
			}
		}
	}
}
