package difftest

import (
	"fmt"
	"os"
	"strconv"
	"testing"

	"repro/internal/core"
	"repro/internal/datasets"
	"repro/internal/engine"
	"repro/internal/gen"
	"repro/internal/graph"
)

// quickFamilies are the PR-gating sweep inputs: one graph per generator
// family plus the smallest bundled dataset, all sized so the full
// engine × ordering × thread matrix stays well under the CI budget.
func quickFamilies(t *testing.T) map[string]*graph.Bipartite {
	t.Helper()
	ul, ok := datasets.ByName("UL")
	if !ok {
		t.Fatal("dataset UL missing from registry")
	}
	return map[string]*graph.Bipartite{
		"uniform":     gen.Uniform(101, 60, 30, 240),
		"powerlaw":    gen.PowerLaw(102, 70, 35, 260, 1.6, 1.9),
		"affiliation": gen.Affiliation(103, gen.AffiliationConfig{NU: 40, NV: 24, Communities: 6, MeanU: 4, MeanV: 3, Density: 0.9, NoiseEdges: 30}),
		"dataset-UL":  ul.Build(),
	}
}

// TestSweepAllEnginesAgree is the acceptance sweep: every engine ×
// ordering × thread-count cell must produce the same biclique-set digest,
// compared by fingerprint, not count.
func TestSweepAllEnginesAgree(t *testing.T) {
	configs := Matrix(MatrixOpts{Threads: []int{1, 4, 8}, Seed: 7})
	wantCells := 0
	for _, e := range engine.All() {
		if e.Parallel() {
			wantCells += 3 * 3
		} else {
			wantCells += 3
		}
	}
	if len(configs) != wantCells {
		t.Fatalf("matrix has %d cells, want %d (engines × orderings × threads)", len(configs), wantCells)
	}
	for name, g := range quickFamilies(t) {
		t.Run(name, func(t *testing.T) {
			mismatches, err := Sweep(g, configs)
			if err != nil {
				t.Fatal(err)
			}
			for _, m := range mismatches {
				t.Error(m)
			}
		})
	}
}

// TestSweepAgreesWithBruteForce anchors the reference cell itself to the
// exhaustive oracle on graphs small enough to brute-force.
func TestSweepAgreesWithBruteForce(t *testing.T) {
	configs := Matrix(MatrixOpts{Threads: []int{1, 4}, Seed: 3})
	for seed := int64(0); seed < 8; seed++ {
		g := gen.Uniform(seed, 18, 12, 45)
		want := BruteDigest(g)
		for _, c := range configs {
			got, err := Run(g, c)
			if err != nil {
				t.Fatalf("seed %d: %v", seed, err)
			}
			if !got.Equal(want) {
				t.Errorf("seed %d: [%s] digest %s != oracle %s", seed, c, got, want)
			}
		}
	}
}

// TestSweepTauBoundaries extends the acceptance sweep to the multi-word
// bitmap thresholds: τ at the 2- and 4-word mask boundaries, across the
// full engine × ordering matrix at 1/4/8 threads. The "dense" fixture has
// V-degrees ≈ 150 so τ = 128/256 promotions genuinely build 2–3-word
// masks; its digest is additionally anchored to the brute-force oracle.
func TestSweepTauBoundaries(t *testing.T) {
	dense := gen.Uniform(401, 340, 12, 1800)
	graphs := quickFamilies(t)
	graphs["dense"] = dense
	for _, tau := range []int{128, 256} {
		configs := Matrix(MatrixOpts{Threads: []int{1, 4, 8}, Seed: 17, Tau: tau})
		for name, g := range graphs {
			t.Run(fmt.Sprintf("tau=%d/%s", tau, name), func(t *testing.T) {
				mismatches, err := Sweep(g, configs)
				if err != nil {
					t.Fatal(err)
				}
				for _, m := range mismatches {
					t.Error(m)
				}
			})
		}
		want := BruteDigest(dense)
		for _, c := range configs {
			if c.Engine != engine.AdaMBE && c.Engine != engine.ParAdaMBE {
				continue
			}
			got, err := Run(dense, c)
			if err != nil {
				t.Fatalf("[%s]: %v", c, err)
			}
			if !got.Equal(want) {
				t.Errorf("[%s]: digest %s != oracle %s", c, got, want)
			}
		}
	}
}

// TestBBKSweepAgainstOracle anchors BBK to the brute-force oracle across
// every ordering, on the standard quick families plus two fixtures aimed
// at its pivot rule: a dense near-biclique (every branch has huge local
// degrees, so absorption and domination pruning fire constantly) and a
// star-heavy skew (a few hub V vertices dominate every candidate set, so
// the max-degree pivot is always a hub and must still not lose the
// degree-1 periphery).
func TestBBKSweepAgainstOracle(t *testing.T) {
	graphs := map[string]*graph.Bipartite{
		"dense":      gen.Uniform(402, 24, 16, 300),
		"star-heavy": gen.PowerLaw(403, 120, 20, 400, 1.1, 2.8),
	}
	for name, g := range quickFamilies(t) {
		if g.NV() <= core.MaxBruteForceV {
			graphs[name] = g
		}
	}
	configs := Matrix(MatrixOpts{Threads: []int{1}, Seed: 11})
	for name, g := range graphs {
		want := BruteDigest(g)
		for _, c := range configs {
			if c.Engine != engine.BBK {
				continue
			}
			got, err := Run(g, c)
			if err != nil {
				t.Fatalf("%s [%s]: %v", name, c, err)
			}
			if !got.Equal(want) {
				t.Errorf("%s [%s]: digest %s != oracle %s", name, c, got, want)
			}
		}
	}
	// The fixtures also join the full cross-engine sweep, so BBK's digest
	// is pinned to every other engine on them, not just the oracle.
	for name, g := range graphs {
		mismatches, err := Sweep(g, configs)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for _, m := range mismatches {
			t.Error(name, m)
		}
	}
}

// TestMetamorphicInvariance applies every transformation and asserts the
// mapped-back digest matches the original enumeration's digest.
func TestMetamorphicInvariance(t *testing.T) {
	graphs := map[string]*graph.Bipartite{
		"uniform":     gen.Uniform(201, 50, 25, 200),
		"affiliation": gen.Affiliation(202, gen.AffiliationConfig{NU: 36, NV: 20, Communities: 5, MeanU: 4, MeanV: 3, Density: 0.9, NoiseEdges: 20}),
	}
	engines := []Config{
		{Engine: engine.AdaMBE},
		{Engine: engine.ParAdaMBE, Threads: 4},
		{Engine: engine.FMBE},
		{Engine: engine.BBK},
	}
	for gname, g := range graphs {
		ref, err := Run(g, engines[0])
		if err != nil {
			t.Fatal(err)
		}
		for _, tr := range Transforms(42) {
			tg, mb, err := tr.Apply(g)
			if err != nil {
				t.Fatalf("%s/%s: apply: %v", gname, tr.Name, err)
			}
			for _, c := range engines {
				t.Run(fmt.Sprintf("%s/%s/%s", gname, tr.Name, c.Engine), func(t *testing.T) {
					got, err := RunMapped(tg, c, mb)
					if err != nil {
						t.Fatal(err)
					}
					if !got.Equal(ref) {
						t.Fatalf("digest not invariant: %s vs %s", got, ref)
					}
				})
			}
		}
	}
}

// TestExtendedSweep is the nightly leg: bigger generator sizes, a fresh
// seed per run (MBE_DIFFTEST_SEED, typically the epoch), the full
// thread matrix, and automatic minimization of any disagreement into
// testdata/repros for artifact upload. Gated behind MBE_DIFFTEST_EXTENDED
// so the PR job stays fast.
func TestExtendedSweep(t *testing.T) {
	if os.Getenv("MBE_DIFFTEST_EXTENDED") == "" {
		t.Skip("set MBE_DIFFTEST_EXTENDED=1 (nightly CI) to run the extended differential sweep")
	}
	seed := int64(424242)
	if s := os.Getenv("MBE_DIFFTEST_SEED"); s != "" {
		v, err := strconv.ParseInt(s, 10, 64)
		if err != nil {
			t.Fatalf("MBE_DIFFTEST_SEED: %v", err)
		}
		seed = v
	}
	t.Logf("extended sweep seed %d", seed)

	graphs := map[string]*graph.Bipartite{
		"uniform":     gen.Uniform(seed, 300, 150, 2000),
		"powerlaw":    gen.PowerLaw(seed+1, 400, 200, 2600, 1.6, 2.0),
		"affiliation": gen.Affiliation(seed+2, gen.AffiliationConfig{NU: 150, NV: 80, Communities: 12, MeanU: 6, MeanV: 5, Density: 0.8, NoiseEdges: 250}),
		"sample":      gen.SampleEdges(gen.Uniform(seed+3, 250, 120, 3000), 0.5, seed+4),
	}
	for _, name := range []string{"UL", "UF"} {
		spec, ok := datasets.ByName(name)
		if !ok {
			t.Fatalf("dataset %s missing", name)
		}
		graphs["dataset-"+name] = spec.Build()
	}

	configs := Matrix(MatrixOpts{Threads: []int{1, 4, 8}, Seed: seed})
	for name, g := range graphs {
		t.Run(name, func(t *testing.T) {
			mismatches, err := Sweep(g, configs)
			if err != nil {
				t.Fatal(err)
			}
			for _, m := range mismatches {
				t.Error(m)
				min := Minimize(m.Graph, MismatchProperty(m.A, m.B), 0)
				path, serr := SaveRepro("testdata/repros", Repro{
					Graph:  min,
					A:      m.A,
					B:      m.B,
					Expect: ExpectMismatch,
					Note:   fmt.Sprintf("extended sweep, input %s, seed %d (meta %+v)", name, seed, m.Graph.Meta()),
				})
				if serr != nil {
					t.Errorf("saving repro: %v", serr)
					continue
				}
				t.Logf("minimized repro written to %s (%d edges)", path, min.NumEdges())
			}
		})
	}
}

// TestRunRejectsIncompleteRuns: a partial run must never silently produce
// a comparable digest.
func TestRunRejectsIncompleteRuns(t *testing.T) {
	g := gen.Uniform(7, 40, 20, 160)
	// Force a pre-expired deadline through the dispatch layer by running
	// the engine directly: Run has no deadline knob (by design), so this
	// guards the StopReason check instead via a config that cannot
	// complete — the smallest way is an impossible thread/variant combo.
	if _, err := Run(g, Config{Engine: engine.ID(99)}); err == nil {
		t.Fatal("unknown engine must error")
	}
	var d Digest
	res, err := core.Enumerate(g, core.Options{Variant: core.Ada, OnBiclique: d.Observe})
	if err != nil || res.StopReason != core.StopNone {
		t.Fatalf("sanity: %v %v", res.StopReason, err)
	}
}
