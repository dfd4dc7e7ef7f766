package vset

import (
	"math/rand"
	"slices"
	"sort"
	"testing"
	"testing/quick"
)

func sorted(xs []uint8) []int32 {
	set := map[int32]bool{}
	for _, x := range xs {
		set[int32(x)] = true
	}
	out := make([]int32, 0, len(set))
	for x := range set {
		out = append(out, x)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func TestIntersectIntoBasic(t *testing.T) {
	a := []int32{1, 3, 5, 7, 9}
	b := []int32{3, 4, 5, 9, 11}
	dst := make([]int32, 5)
	n := IntersectInto(dst, a, b)
	want := []int32{3, 5, 9}
	if n != 3 || !Equal(dst[:n], want) {
		t.Fatalf("IntersectInto = %v (%d)", dst[:n], n)
	}
}

func TestIntersectIntoEmpty(t *testing.T) {
	dst := make([]int32, 4)
	if n := IntersectInto(dst, nil, []int32{1, 2}); n != 0 {
		t.Fatalf("empty ∩ x = %d", n)
	}
	if n := IntersectInto(dst, []int32{1, 2}, []int32{3, 4}); n != 0 {
		t.Fatalf("disjoint = %d", n)
	}
}

// IntersectInto documents that dst may alias either input.
func TestIntersectIntoAliasing(t *testing.T) {
	a := []int32{1, 2, 3, 4, 5, 6}
	b := []int32{2, 4, 6, 8}
	n := IntersectInto(a, a, b) // dst aliases the longer input
	if !Equal(a[:n], []int32{2, 4, 6}) {
		t.Fatalf("alias long: %v", a[:n])
	}
	c := []int32{2, 4, 6, 8}
	d := []int32{1, 2, 3, 4, 5, 6}
	n = IntersectInto(c, c, d) // dst aliases the shorter input
	if !Equal(c[:n], []int32{2, 4, 6}) {
		t.Fatalf("alias short: %v", c[:n])
	}
}

func TestQuickIntersectAgainstModel(t *testing.T) {
	f := func(xs, ys []uint8) bool {
		a, b := sorted(xs), sorted(ys)
		dst := make([]int32, min(len(a), len(b)))
		n := IntersectInto(dst, a, b)
		if n != IntersectLen(a, b) {
			return false
		}
		inB := map[int32]bool{}
		for _, y := range b {
			inB[y] = true
		}
		var want []int32
		for _, x := range a {
			if inB[x] {
				want = append(want, x)
			}
		}
		return Equal(dst[:n], want)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestQuickIntersectGallopMatchesMerge(t *testing.T) {
	f := func(xs, ys []uint8) bool {
		a, b := sorted(xs), sorted(ys)
		if len(a) > len(b) {
			a, b = b, a
		}
		d1 := make([]int32, len(a))
		d2 := make([]int32, len(a))
		n1 := IntersectInto(d1, a, b)
		n2 := IntersectGallop(d2, a, b)
		return n1 == n2 && Equal(d1[:n1], d2[:n2])
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestIntersectGallopEdges(t *testing.T) {
	dst := make([]int32, 4)
	if n := IntersectGallop(dst, nil, []int32{1, 2}); n != 0 {
		t.Fatal("empty small")
	}
	if n := IntersectGallop(dst, []int32{5}, nil); n != 0 {
		t.Fatal("empty large")
	}
	if n := IntersectGallop(dst, []int32{0, 9}, []int32{9}); n != 1 || dst[0] != 9 {
		t.Fatalf("tail element: n=%d", n)
	}
	if n := IntersectGallop(dst, []int32{3, 4}, []int32{1, 2}); n != 0 {
		t.Fatal("past-end small elements")
	}
}

func TestQuickIsSubsetDefinition(t *testing.T) {
	f := func(xs, ys []uint8) bool {
		a, b := sorted(xs), sorted(ys)
		return IsSubset(a, b) == (IntersectLen(a, b) == len(a))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestEqual(t *testing.T) {
	if !Equal(nil, nil) || !Equal([]int32{1}, []int32{1}) {
		t.Fatal("Equal false negative")
	}
	if Equal([]int32{1}, []int32{2}) || Equal([]int32{1}, []int32{1, 2}) {
		t.Fatal("Equal false positive")
	}
}

func TestSlabStackDiscipline(t *testing.T) {
	var s Slab[int32]
	m0 := s.Mark()
	a := s.Alloc(10)
	for i := range a {
		a[i] = int32(i)
	}
	m1 := s.Mark()
	b := s.Alloc(20)
	for i := range b {
		b[i] = 100
	}
	s.Release(m1)
	c := s.Alloc(20) // reuses b's space
	_ = c
	for i := range a {
		if a[i] != int32(i) {
			t.Fatal("release corrupted earlier allocation")
		}
	}
	s.Release(m0)
	d := s.Alloc(5)
	_ = d
}

func TestSlabLargeAllocationsSpanBlocks(t *testing.T) {
	var s Slab[int32]
	sizes := []int{10, slabMinBlock, 3, slabMinBlock * 4, 7}
	ptrs := make([][]int32, len(sizes))
	for i, n := range sizes {
		ptrs[i] = s.Alloc(n)
		for j := range ptrs[i] {
			ptrs[i][j] = int32(i)
		}
	}
	for i, p := range ptrs {
		for _, v := range p {
			if v != int32(i) {
				t.Fatalf("allocation %d corrupted", i)
			}
		}
	}
}

func TestSlabShrinkLast(t *testing.T) {
	var s Slab[int32]
	a := s.Alloc(100)
	s.ShrinkLast(100, 10)
	b := s.Alloc(10)
	// b must start where a[10] would have been.
	b[0] = 42
	if a[10] != 42 {
		t.Fatal("ShrinkLast did not reclaim the tail")
	}
}

func TestSlabReuseAfterRelease(t *testing.T) {
	var s Slab[int32]
	m := s.Mark()
	total := 0
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 1000; i++ {
		n := 1 + rng.Intn(200)
		buf := s.Alloc(n)
		total += len(buf)
		if i%10 == 9 {
			s.Release(m)
		}
	}
	if total == 0 {
		t.Fatal("no allocations")
	}
	// After full release the slab reuses block 0.
	s.Release(m)
	if got := s.Alloc(1); got == nil {
		t.Fatal("alloc failed after release")
	}
}

// randIDs returns n distinct ids from [lo, hi) in random order.
func randIDs(rng *rand.Rand, n int, lo, hi int32) []int32 {
	ids := make([]int32, n)
	for i, x := range rng.Perm(int(hi - lo))[:n] {
		ids[i] = lo + int32(x)
	}
	return ids
}

// TestSortIDsMatchesSort checks the suffix ordering against slices.Sort
// on distinct id sets of every shape its callers produce: empty, one id,
// dense, spread over far more words than ids, on the 63/64 word edges and
// up to the last id |V|−1, random sets of every size and span besides.
// Both branches must run, and the scratch must come back all zero.
func TestSortIDsMatchesSort(t *testing.T) {
	const nv = 5000
	scratch := make([]uint64, (nv+63)/64)
	rng := rand.New(rand.NewSource(7))
	cases := [][]int32{
		nil,
		{nv - 1},
		{0},
		{nv - 1, 0},
		{127, 64, 63, 0, 128, 191, 192, 65},
		{nv - 1, nv - 2, 4991, 4928, 4927},
		randIDs(rng, 2000, 0, 2048),
		randIDs(rng, 64, nv-64, nv),
		randIDs(rng, 3, 0, nv),
		randIDs(rng, 40, 0, nv),
	}
	for range 300 {
		lo := rng.Int31n(nv)
		hi := lo + 1 + rng.Int31n(nv-lo)
		cases = append(cases, randIDs(rng, rng.Intn(int(min(hi-lo, 300))+1), lo, hi))
	}
	branches := map[bool]int{}
	for _, ids := range cases {
		want := slices.Clone(ids)
		slices.Sort(want)
		got := slices.Clone(ids)
		SortIDs(got, scratch)
		if !slices.Equal(got, want) {
			t.Fatalf("SortIDs(%v) = %v, want %v", ids, got, want)
		}
		if len(ids) > 1 {
			branches[ScanSorts(len(ids), want[0], want[len(want)-1])]++
		}
		for i, w := range scratch {
			if w != 0 {
				t.Fatalf("SortIDs(%v) left scratch word %d = %#x", ids, i, w)
			}
		}
	}
	if branches[true] == 0 || branches[false] == 0 {
		t.Fatalf("%d id sets scanned, %d sorted: want both branches", branches[true], branches[false])
	}
}
