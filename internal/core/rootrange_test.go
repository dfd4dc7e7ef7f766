package core

import (
	"errors"
	"sort"
	"testing"
)

func TestValidateRootRange(t *testing.T) {
	const nv = 10
	cases := []struct {
		start, end int32
		ok         bool
	}{
		{0, 0, true},       // 0 means "to the last root"
		{5, 0, true},       // open-ended suffix
		{0, nv, true},      // exact full range
		{3, 7, true},       // interior
		{9, 10, true},      // single trailing root
		{0, -1, false},     // negative end
		{5, 5, false},      // empty
		{7, 3, false},      // reversed
		{0, nv + 1, false}, // past the graph
		{11, 0, false},     // open-ended suffix starting past the graph
		{10, 0, true},      // a resumed run whose watermark reached the end
		{-1, 5, false},     // negative start
	}
	for _, c := range cases {
		err := ValidateRootRange(c.start, c.end, nv)
		if (err == nil) != c.ok {
			t.Errorf("ValidateRootRange(%d, %d, %d) = %v, want ok=%v", c.start, c.end, nv, err, c.ok)
		}
		if err != nil && !errors.Is(err, ErrBadOptions) {
			t.Errorf("ValidateRootRange(%d, %d, %d) error %v does not wrap ErrBadOptions", c.start, c.end, nv, err)
		}
	}
}

// TestEndRootPartitionsOutput: for every engine configuration, cutting
// the root space at any point yields two runs whose outputs are
// disjoint and union to the full run — the exactness property the
// distributed sharding layer (internal/dist) is built on.
func TestEndRootPartitionsOutput(t *testing.T) {
	g := randomBipartite(t, 77, 20, 14, 90)
	nv := int32(g.NV())
	for _, opts := range allConfigs() {
		full, _, err := CollectKeys(g, opts)
		if err != nil {
			t.Fatal(err)
		}
		for _, cut := range []int32{1, nv / 2, nv - 1} {
			lo := opts
			lo.StartRoot, lo.EndRoot = 0, cut
			hi := opts
			hi.StartRoot, hi.EndRoot = cut, nv
			loKeys, _, err := CollectKeys(g, lo)
			if err != nil {
				t.Fatal(err)
			}
			hiKeys, _, err := CollectKeys(g, hi)
			if err != nil {
				t.Fatal(err)
			}
			merged := append(append([]string(nil), loKeys...), hiKeys...)
			sort.Strings(merged)
			if !keysEqual(merged, full) {
				t.Fatalf("variant %v τ=%d threads=%d cut=%d: shards %d+%d != full %d (or overlap)",
					opts.Variant, opts.Tau, opts.Threads, cut, len(loKeys), len(hiKeys), len(full))
			}
		}
	}
}

// TestEndRootValidationAtEnumerate: Enumerate itself rejects bad ranges
// (the CLI and dist layers rely on this single checkpoint).
func TestEndRootValidationAtEnumerate(t *testing.T) {
	g := randomBipartite(t, 78, 6, 6, 18)
	for _, bad := range []Options{
		{EndRoot: -1},
		{StartRoot: 4, EndRoot: 4},
		{StartRoot: 5, EndRoot: 2},
		{EndRoot: int32(g.NV()) + 1},
		{StartRoot: int32(g.NV()) + 1},
		{StartRoot: -1},
	} {
		if _, err := Enumerate(g, bad); !errors.Is(err, ErrBadOptions) {
			t.Errorf("Enumerate with range [%d,%d) returned %v, want ErrBadOptions", bad.StartRoot, bad.EndRoot, err)
		}
	}
}
