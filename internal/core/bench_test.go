package core

import (
	"testing"

	"repro/internal/datasets"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/order"
	"repro/internal/tle"
)

func benchGraph(b *testing.B) *graph.Bipartite {
	b.Helper()
	g := gen.Affiliation(42, gen.AffiliationConfig{
		NU: 2000, NV: 700, Communities: 280,
		MeanU: 10, MeanV: 5, Density: 0.9, NoiseEdges: 1500,
	})
	return order.Apply(g.Orient(), order.DegreeAscending, 0)
}

// BenchmarkVariant ablates the paper's two techniques on one workload:
// Baseline (neither), LN only, BIT only, and full AdaMBE.
func BenchmarkVariant(b *testing.B) {
	g := benchGraph(b)
	for _, v := range []Variant{Baseline, LN, BIT, Ada} {
		b.Run(v.String(), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				res, err := Enumerate(g, Options{Variant: v})
				if err != nil || res.Count == 0 {
					b.Fatalf("res=%+v err=%v", res, err)
				}
			}
		})
	}
}

// BenchmarkRootLevel times the LN root level alone: serial AdaMBE on the
// IM analogue in ASC order, with SkipSubtree dropping every root's
// subtree. Each root still walks its two-hop wedges, orders its suffix,
// is classified and emitted when maximal, and, when it has candidates,
// walks its wedges again: into its bitmap CG's masks when |N(v')| ≤ τ,
// as nearly every root does, and into its lists otherwise.
func BenchmarkRootLevel(b *testing.B) {
	spec, ok := datasets.ByName("IM")
	if !ok {
		b.Fatal("IM dataset missing")
	}
	g := order.Apply(spec.Build(), order.DegreeAscending, 0)
	skip := func(int, int, int) bool { return true }
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := Enumerate(g, Options{Variant: Ada, SkipSubtree: skip})
		if err != nil || res.Count == 0 {
			b.Fatalf("res=%+v err=%v", res, err)
		}
	}
}

// BenchmarkTauAblation measures the τ-dependence of the bitmap technique
// at micro scale (the full-scale version is harness Fig11).
func BenchmarkTauAblation(b *testing.B) {
	g := benchGraph(b)
	for _, tau := range []int{8, 64, 512} {
		b.Run(map[int]string{8: "tau8", 64: "tau64", 512: "tau512"}[tau], func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := Enumerate(g, Options{Variant: Ada, Tau: tau}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkBitmapCreation isolates the cost of materializing bitmap CGs
// from local-neighborhood data (Algorithm 2 line 5).
func BenchmarkBitmapCreation(b *testing.B) {
	g := benchGraph(b)
	e := newEngine(g, Options{Variant: Ada}, &tle.Shared{}, 0)
	// A synthetic node: 48 L vertices, 200 candidates with ~16 local nbrs.
	L := make([]int32, 48)
	for i := range L {
		L[i] = int32(i * 3)
	}
	candIDs := make([]int32, 200)
	candNbrs := make([][]int32, 200)
	for i := range candIDs {
		candIDs[i] = int32(i)
		nb := make([]int32, 16)
		for j := range nb {
			nb[j] = L[(i+j*2)%len(L)]
		}
		// keep sorted subset semantics
		for j := 1; j < len(nb); j++ {
			for k := j; k > 0 && nb[k-1] > nb[k]; k-- {
				nb[k-1], nb[k] = nb[k], nb[k-1]
			}
		}
		dedup := nb[:0]
		for j, x := range nb {
			if j == 0 || x != dedup[len(dedup)-1] {
				dedup = append(dedup, x)
			}
		}
		candNbrs[i] = dedup
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cg := e.buildBitCGFromLN(L, candIDs, candNbrs, nil, nil)
		if cg.nCand != 200 {
			b.Fatal("bad CG")
		}
	}
}

// BenchmarkParallelOverhead compares serial AdaMBE with ParAdaMBE at one
// worker — the pure scheduling/detach overhead of the task machinery.
func BenchmarkParallelOverhead(b *testing.B) {
	g := benchGraph(b)
	b.Run("serial", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := Enumerate(g, Options{Variant: Ada}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("par2workers", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := Enumerate(g, Options{Variant: Ada, Threads: 2}); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkSkipHooks measures the cost of enabling (never-firing) search
// hooks — the price every finder search pays on top of raw enumeration.
func BenchmarkSkipHooks(b *testing.B) {
	g := benchGraph(b)
	never2 := func(int) bool { return false }
	never3 := func(int, int, int) bool { return false }
	b.Run("off", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := Enumerate(g, Options{Variant: Ada}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("on", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := Enumerate(g, Options{Variant: Ada, SkipChild: never2, SkipSubtree: never3}); err != nil {
				b.Fatal(err)
			}
		}
	})
}
