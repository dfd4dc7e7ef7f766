package bitset

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

// members lists the ids in [0, n) that s contains, ascending.
func members(s *Set, n int) []int {
	var out []int
	for i := 0; i < n; i++ {
		if s.Contains(i) {
			out = append(out, i)
		}
	}
	return out
}

func TestSetAddContainsRemove(t *testing.T) {
	s := New(128)
	in := []int{0, 1, 63, 64, 65, 127}
	for _, i := range in {
		if s.Contains(i) {
			t.Fatalf("fresh set contains %d", i)
		}
		s.Add(i)
		if !s.Contains(i) {
			t.Fatalf("set missing %d after Add", i)
		}
	}
	if got := members(s, 128); !slices.Equal(got, in) {
		t.Fatalf("members = %v, want %v", got, in)
	}
	s.Remove(64)
	if got, want := members(s, 128), []int{0, 1, 63, 65, 127}; !slices.Equal(got, want) {
		t.Fatalf("members after Remove(64) = %v, want %v", got, want)
	}
}

func TestSetGrowsBeyondCapacity(t *testing.T) {
	s := New(8)
	s.Add(1000)
	if !s.Contains(1000) {
		t.Fatal("set missing 1000 after growth")
	}
	if s.Contains(999) {
		t.Fatal("spurious member 999")
	}
}

func TestSetRemoveBeyondCapacityIsNoop(t *testing.T) {
	s := New(8)
	s.Remove(1 << 20) // must not panic or grow
	if len(s.words) != 1 || s.Contains(1<<20) {
		t.Fatalf("Remove past capacity grew the set to %d words", len(s.words))
	}
}

func TestSetZeroValueUsable(t *testing.T) {
	var s Set
	if s.Contains(3) {
		t.Fatal("zero Set contains 3 before Add")
	}
	s.ClearSlice([]int32{3, 500}) // must not panic
	s.Add(3)
	if !s.Contains(3) {
		t.Fatal("zero Set missing 3 after Add")
	}
}

func TestSetSliceRoundTrip(t *testing.T) {
	in := []int32{9, 2, 77, 2, 500, 0}
	s := New(64)
	s.AddSlice(in)
	if got, want := members(s, 600), []int{0, 2, 9, 77, 500}; !slices.Equal(got, want) {
		t.Fatalf("members after AddSlice = %v, want %v", got, want)
	}
	s.ClearSlice(in)
	if got := members(s, 600); len(got) != 0 {
		t.Fatalf("ClearSlice of the same ids left %v", got)
	}
}

func TestSetClearAndClearSlice(t *testing.T) {
	s := New(256)
	s.AddSlice([]int32{1, 2, 3, 200})
	s.ClearSlice([]int32{2, 200, 7})
	if got, want := members(s, 256), []int{1, 3}; !slices.Equal(got, want) {
		t.Fatalf("ClearSlice left %v, want %v", got, want)
	}
	s.ClearSlice([]int32{1, 3})
	if got := members(s, 256); len(got) != 0 {
		t.Fatalf("ClearSlice left members behind: %v", got)
	}
}

// Property: Set semantics match map[int]bool under a random op sequence.
func TestSetMatchesMapModel(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 50; trial++ {
		s := New(64)
		model := map[int]bool{}
		for op := 0; op < 500; op++ {
			i := rng.Intn(300)
			switch rng.Intn(3) {
			case 0:
				s.Add(i)
				model[i] = true
			case 1:
				s.Remove(i)
				delete(model, i)
			case 2:
				if s.Contains(i) != model[i] {
					t.Fatalf("trial %d: Contains(%d) = %v, model %v", trial, i, s.Contains(i), model[i])
				}
			}
		}
		for i := 0; i < 300; i++ {
			if s.Contains(i) != model[i] {
				t.Fatalf("trial %d: Contains(%d) = %v at the end, model %v", trial, i, s.Contains(i), model[i])
			}
		}
	}
}

// Property (testing/quick): Mask.SubsetOf agrees with the definition.
func TestQuickSubsetDefinition(t *testing.T) {
	f := func(xs, ys []uint8) bool {
		ra, rb := refSet{}, refSet{}
		for _, x := range xs {
			ra[int(x)] = true
		}
		for _, y := range ys {
			rb[int(y)] = true
		}
		// Half the cases draw a from b, so subsets are not vanishingly rare.
		if len(xs)%2 == 0 {
			ra = ra.and(rb)
		}
		return maskFromRef(ra, 256).SubsetOf(maskFromRef(rb, 256)) == ra.subsetOf(rb)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestMaskBasics(t *testing.T) {
	for _, width := range []int{1, 2, 4} {
		m := make(Mask, width)
		if m.Count() != 0 {
			t.Fatalf("width %d: fresh mask not zero", width)
		}
		hi := width*64 - 1
		m.Set(0)
		m.Set(hi)
		if m.Count() != 2 {
			t.Fatalf("width %d: Count = %d, want 2", width, m.Count())
		}
		if got := maskBits(m); !slices.Equal(got, []int{0, hi}) {
			t.Fatalf("width %d: ForEach visited %v", width, got)
		}
	}
}

func TestMaskFillLow(t *testing.T) {
	for _, tc := range []struct{ width, n int }{
		{1, 0}, {1, 1}, {1, 63}, {1, 64}, {2, 64}, {2, 65}, {2, 128}, {3, 130},
	} {
		m := make(Mask, tc.width)
		m.FillLow(tc.n)
		if got := m.Count(); got != tc.n {
			t.Fatalf("width %d FillLow(%d): Count = %d", tc.width, tc.n, got)
		}
		got := maskBits(m)
		for i, b := range got {
			if b != i {
				t.Fatalf("width %d FillLow(%d): bits %v", tc.width, tc.n, got)
			}
		}
	}
}

func TestMaskAndSubsetEqual(t *testing.T) {
	x, y, z := make(Mask, 2), make(Mask, 2), make(Mask, 2)
	x.Set(3)
	x.Set(100)
	y.Set(3)
	y.Set(70)
	for i := range z {
		z[i] = x[i] & y[i]
	}
	if !z.SubsetOf(x) || !z.SubsetOf(y) {
		t.Fatal("intersection not subset of operands")
	}
	if x.SubsetOf(y) || y.SubsetOf(x) {
		t.Fatal("x and y are incomparable but SubsetOf says otherwise")
	}
	if !x.SubsetOf(x) {
		t.Fatal("a mask is not a subset of itself")
	}
}

func TestWordsFor(t *testing.T) {
	cases := map[int]int{-1: 0, 0: 0, 1: 1, 64: 1, 65: 2, 128: 2, 129: 3}
	for n, want := range cases {
		if got := WordsFor(n); got != want {
			t.Fatalf("WordsFor(%d) = %d, want %d", n, got, want)
		}
	}
}
