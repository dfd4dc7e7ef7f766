package core

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/graph"
)

// tauBoundaryValues straddle every mask word boundary the unrolled kernels
// care about: exactly one/two/four words, and one bit either side.
var tauBoundaryValues = []int{64, 65, 127, 128, 129, 255, 256}

// denseBipartite builds a graph whose root subproblems have |L| large
// enough to exercise multi-word bitmaps: nu U-side vertices, nv V-side,
// each V vertex connected to a random ~frac of U. nv stays under
// MaxBruteForceV so the oracle is available.
func denseBipartite(t testing.TB, seed int64, nu, nv int, frac float64) *graph.Bipartite {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	var edges []graph.Edge
	for v := 0; v < nv; v++ {
		for u := 0; u < nu; u++ {
			if rng.Float64() < frac {
				edges = append(edges, graph.Edge{U: int32(u), V: int32(v)})
			}
		}
	}
	g, err := graph.FromEdges(nu, nv, edges)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// TestTauWordBoundariesAgainstOracle sweeps τ across the 1/2/3/4-word mask
// boundaries on graphs whose |L| actually reaches those widths, for both
// the serial and parallel engines, and checks the enumerated set (not just
// the count) against the brute-force oracle.
func TestTauWordBoundariesAgainstOracle(t *testing.T) {
	graphs := []struct {
		name string
		g    *graph.Bipartite
	}{
		// deg(v) ≈ 90: promotions at τ ≥ 65 build 2-word masks.
		{"nu=150", denseBipartite(t, 11, 150, 10, 0.6)},
		// deg(v) ≈ 170: τ = 255/256 promotions build 3–4-word masks.
		{"nu=340", denseBipartite(t, 13, 340, 9, 0.5)},
	}
	for _, gr := range graphs {
		want := BruteForceKeys(gr.g)
		if len(want) == 0 {
			t.Fatalf("%s: oracle found nothing; fixture too sparse", gr.name)
		}
		for _, tau := range tauBoundaryValues {
			for _, threads := range []int{1, 4, 8} {
				name := fmt.Sprintf("%s/tau=%d/threads=%d", gr.name, tau, threads)
				var m Metrics
				o := Options{Variant: Ada, Tau: tau, Threads: threads, Metrics: &m}
				got, res, err := CollectKeys(gr.g, o)
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				if res.Count != int64(len(want)) || !keysEqual(got, want) {
					t.Fatalf("%s: got %d bicliques, want %d (sets differ: %v)",
						name, res.Count, len(want), !keysEqual(got, want))
				}
				// Vacuity guard: the sweep must actually reach the bitmap
				// path, otherwise it only retests LN.
				if m.BitPromotions == 0 {
					t.Fatalf("%s: no LN→BIT promotions; boundary not exercised", name)
				}
			}
		}
	}

	// The big fixture at τ = 256 must build masks wider than one word —
	// this pins the histogram too, so a silent fall-back to the scalar
	// path can't pass the sweep.
	var m Metrics
	if _, _, err := CollectKeys(graphs[1].g, Options{Variant: Ada, Tau: 256, Metrics: &m}); err != nil {
		t.Fatal(err)
	}
	multi := m.BitWidthHist[1] + m.BitWidthHist[2] + m.BitWidthHist[3] + m.BitWidthHist[4]
	if multi == 0 {
		t.Fatalf("tau=256 on nu=340 built only 1-word bitmaps: hist %v", m.BitWidthHist)
	}
}

// TestDefaultTauPromotesTwoWordRoots: at the default τ, a maximal root
// with 65–128 neighbours goes straight from its wedge walk into one
// two-word bitmap, and no searchLN node runs below it (SiteNode fires
// once per searchLN child). At the paper's τ = 64 the same roots run
// searchLN, so the fixture does reach the path the default skips.
func TestDefaultTauPromotesTwoWordRoots(t *testing.T) {
	g := denseBipartite(t, 11, 150, 10, 0.6) // deg(v) ≈ 90
	for v := int32(0); v < int32(g.NV()); v++ {
		if d := g.DegV(v); d <= 64 || d > 128 {
			t.Fatalf("fixture root %d has %d neighbours, want 65–128", v, d)
		}
	}
	want := BruteForceKeys(g)
	lnNodes := func(tau int) (int, Metrics) {
		t.Helper()
		var m Metrics
		nodes := 0
		got, _, err := CollectKeys(g, Options{Variant: Ada, Tau: tau, Metrics: &m, FaultHook: func(site string) error {
			if site == SiteNode {
				nodes++
			}
			return nil
		}})
		if err != nil {
			t.Fatal(err)
		}
		if !keysEqual(got, want) {
			t.Fatalf("tau=%d: %d bicliques differ from the oracle's %d", tau, len(got), len(want))
		}
		return nodes, m
	}
	nodes, m := lnNodes(0)
	if nodes != 0 || m.BitWidthHist[1] == 0 || m.BitWidthHist[1] != m.BitmapsCreated {
		t.Fatalf("default τ = %d: %d searchLN nodes, bitmaps %d by width %v; want no searchLN node and every bitmap two words wide",
			DefaultTau, nodes, m.BitmapsCreated, m.BitWidthHist)
	}
	if nodes, _ := lnNodes(64); nodes == 0 {
		t.Fatal("τ = 64 ran no searchLN node: the fixture does not reach the path the default skips")
	}
}
