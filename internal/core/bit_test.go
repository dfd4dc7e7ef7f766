package core

import (
	"fmt"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/order"
	"repro/internal/tle"
)

// TestBitTreeMatchesLN pins rule 3 inside the bitmap: both bitwise
// procedures drop the candidates a child covers exactly as searchLN does,
// so serial AdaMBE generates, checks and prunes AdaMBE-LN's nodes at every
// τ, on one-word and packed masks alike. The bitmap changes how a node is
// computed, never which nodes exist. AdaMBE-BIT, the paper's BIT-only
// ablation, must prune nothing.
func TestBitTreeMatchesLN(t *testing.T) {
	graphs := []struct {
		name string
		g    *graph.Bipartite
	}{
		{"G0", graph.PaperExample()},
		{"uniform", randomBipartite(t, 71, 60, 80, 700)},
		{"uniform-dense", randomBipartite(t, 72, 30, 50, 600)},
		{"powerlaw", gen.PowerLaw(73, 120, 90, 1500, 1.5, 1.2)},
		{"powerlaw-asc", order.Apply(gen.PowerLaw(74, 90, 120, 1500, 1.2, 1.5), order.DegreeAscending, 0)},
		// |L*| of 2, 3 and 4 words: τ = 128 and 256 fill every mask word.
		{"wide2", denseBipartite(t, 11, 150, 12, 0.6)},
		{"wide3", denseBipartite(t, 13, 340, 10, 0.5)},
		{"wide4", denseBipartite(t, 15, 400, 12, 0.6)},
	}
	taus := []struct {
		tau int
		pad bool
	}{{2, false}, {5, false}, {64, false}, {128, true}, {256, false}}

	var bitmaps int64
	var widths [len(Metrics{}.BitWidthHist)]int64
	for _, gr := range graphs {
		var ln Metrics
		if _, err := Enumerate(gr.g, Options{Variant: LN, Metrics: &ln}); err != nil {
			t.Fatal(err)
		}
		for _, tc := range taus {
			name := fmt.Sprintf("%s/tau=%d/pad=%v", gr.name, tc.tau, tc.pad)
			var ada, bit Metrics
			if _, err := Enumerate(gr.g, Options{Variant: Ada, Tau: tc.tau, PadBitmaps: tc.pad, Metrics: &ada}); err != nil {
				t.Fatal(err)
			}
			if ada.NodesGenerated != ln.NodesGenerated || ada.NodesMaximal != ln.NodesMaximal ||
				ada.NodesNonMaximal != ln.NodesNonMaximal || ada.NodesPruned != ln.NodesPruned {
				t.Errorf("%s: AdaMBE nodes generated/maximal/non-maximal/pruned %d/%d/%d/%d, AdaMBE-LN %d/%d/%d/%d",
					name, ada.NodesGenerated, ada.NodesMaximal, ada.NodesNonMaximal, ada.NodesPruned,
					ln.NodesGenerated, ln.NodesMaximal, ln.NodesNonMaximal, ln.NodesPruned)
			}
			if ada.CGHist != ln.CGHist {
				t.Errorf("%s: AdaMBE's CGHist differs from AdaMBE-LN's", name)
			}
			bitmaps += ada.BitmapsCreated
			if !tc.pad {
				for w, n := range ada.BitWidthHist {
					widths[w] += n
				}
			}

			if _, err := Enumerate(gr.g, Options{Variant: BIT, Tau: tc.tau, PadBitmaps: tc.pad, Metrics: &bit}); err != nil {
				t.Fatal(err)
			}
			if bit.NodesPruned != 0 {
				t.Errorf("%s: AdaMBE-BIT pruned %d nodes; the BIT-only ablation must prune none", name, bit.NodesPruned)
			}
		}
	}
	// Vacuity guard: the sweep must reach both bitwise procedures, and
	// the packed one at every unrolled width with no padding words.
	if bitmaps == 0 || widths[1] == 0 || widths[2] == 0 || widths[3] == 0 {
		t.Fatalf("bitmaps built %d, unpadded ones by width %v: a bitwise procedure or width was never reached", bitmaps, widths)
	}
}

// TestRelScratchChargesGrowth checks that the classification buffer
// charges the memory gauge only what each growth adds, so the gauge holds
// the buffer's retained footprint, cap(e.rels) bytes.
func TestRelScratchChargesGrowth(t *testing.T) {
	shared := &tle.Shared{}
	e := newEngine(graph.PaperExample(), Options{Variant: Ada}, shared, 0)
	base := shared.MemBytes()
	for _, n := range []int{3, 2, 8, 9, 40, 41, 17, 300} {
		e.relScratch(n)
		if got := shared.MemBytes() - base; got != int64(cap(e.rels)) {
			t.Fatalf("after relScratch(%d): gauge charged %d bytes, retained cap(e.rels) = %d", n, got, cap(e.rels))
		}
	}
}
