package core

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"repro/internal/graph"
)

func randomBipartite(t testing.TB, seed int64, nu, nv, m int) *graph.Bipartite {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	edges := make([]graph.Edge, m)
	for i := range edges {
		edges[i] = graph.Edge{U: int32(rng.Intn(nu)), V: int32(rng.Intn(nv))}
	}
	g, err := graph.FromEdges(nu, nv, edges)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func mustAdj(t testing.TB, nu int, rows [][]int32) *graph.Bipartite {
	t.Helper()
	g, err := graph.FromAdjacency(nu, rows)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func keysEqual(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// allConfigs is the matrix of engine configurations every correctness test
// sweeps: all four variants, several τ values, and the parallel engine.
func allConfigs() []Options {
	return []Options{
		{Variant: Baseline},
		{Variant: LN},
		{Variant: BIT},
		{Variant: BIT, Tau: 4},
		{Variant: BIT, Tau: 200},
		{Variant: Ada},
		{Variant: Ada, Tau: 1},
		{Variant: Ada, Tau: 7},
		{Variant: Ada, Tau: 130},
		{Variant: Ada, Threads: 4},
		{Variant: Ada, Threads: 4, Tau: 8},
		{Variant: Ada, Tau: 100, PadBitmaps: true},
		{Variant: BIT, Tau: 100, PadBitmaps: true},
	}
}

func cfgName(o Options) string {
	return fmt.Sprintf("%v/tau=%d/threads=%d", o.Variant, o.Tau, o.Threads)
}

func TestPaperExampleAllVariants(t *testing.T) {
	g := graph.PaperExample()
	want := BruteForceKeys(g)
	if len(want) != 9 {
		t.Fatalf("oracle found %d maximal bicliques on G0, want 9", len(want))
	}
	// The Figure 1 biclique must be among them.
	fig1 := BicliqueKey([]int32{0, 4, 5, 6}, []int32{0, 2, 3})
	found := false
	for _, k := range want {
		if k == fig1 {
			found = true
		}
	}
	if !found {
		t.Fatalf("oracle missing the Figure 1 biclique %q", fig1)
	}
	for _, o := range allConfigs() {
		got, res, err := CollectKeys(g, o)
		if err != nil {
			t.Fatalf("%s: %v", cfgName(o), err)
		}
		if res.Count != int64(len(want)) || !keysEqual(got, want) {
			t.Fatalf("%s: got %d bicliques %v, want %v", cfgName(o), res.Count, got, want)
		}
	}
}

func TestCrossValidationRandomGraphs(t *testing.T) {
	// Hundreds of random graphs spanning sparse to dense; every engine
	// configuration must match the brute-force oracle exactly.
	trials := 0
	for seed := int64(0); seed < 60; seed++ {
		rng := rand.New(rand.NewSource(seed * 7))
		nu := 1 + rng.Intn(40)
		nv := 1 + rng.Intn(12)
		m := rng.Intn(nu*nv + 1)
		g := randomBipartite(t, seed, nu, nv, m)
		want := BruteForceKeys(g)
		for _, o := range allConfigs() {
			got, res, err := CollectKeys(g, o)
			if err != nil {
				t.Fatalf("seed %d %s: %v", seed, cfgName(o), err)
			}
			if res.Count != int64(len(want)) {
				t.Fatalf("seed %d (nu=%d nv=%d m=%d) %s: count %d, want %d",
					seed, nu, nv, m, cfgName(o), res.Count, len(want))
			}
			if !keysEqual(got, want) {
				t.Fatalf("seed %d %s: biclique sets differ", seed, cfgName(o))
			}
			trials++
		}
	}
	if trials < 600 {
		t.Fatalf("only %d trials ran", trials)
	}
}

func TestCrossValidationDenseAndStructured(t *testing.T) {
	cases := map[string]*graph.Bipartite{
		"complete_4x4": mustAdj(t, 4, [][]int32{
			{0, 1, 2, 3}, {0, 1, 2, 3}, {0, 1, 2, 3}, {0, 1, 2, 3},
		}),
		"star": mustAdj(t, 6, [][]int32{
			{0}, {0}, {0, 1, 2, 3, 4, 5},
		}),
		"matching": mustAdj(t, 5, [][]int32{
			{0}, {1}, {2}, {3}, {4},
		}),
		"chain": mustAdj(t, 5, [][]int32{
			{0, 1}, {1, 2}, {2, 3}, {3, 4},
		}),
		"isolated_vs": mustAdj(t, 4, [][]int32{
			{}, {0, 1}, {}, {2},
		}),
		"one_edge": mustAdj(t, 1, [][]int32{{0}}),
		"crossbars": mustAdj(t, 8, [][]int32{
			{0, 1, 2, 3}, {2, 3, 4, 5}, {4, 5, 6, 7}, {0, 1, 6, 7}, {0, 2, 4, 6},
		}),
	}
	for name, g := range cases {
		want := BruteForceKeys(g)
		for _, o := range allConfigs() {
			got, res, err := CollectKeys(g, o)
			if err != nil {
				t.Fatalf("%s %s: %v", name, cfgName(o), err)
			}
			if res.Count != int64(len(want)) || !keysEqual(got, want) {
				t.Fatalf("%s %s: got %v want %v", name, cfgName(o), got, want)
			}
		}
	}
	// complete_4x4 has exactly one maximal biclique.
	if n := len(BruteForceKeys(cases["complete_4x4"])); n != 1 {
		t.Fatalf("complete bipartite graph has %d maximal bicliques, want 1", n)
	}
}

func TestEmptyAndEdgelessGraphs(t *testing.T) {
	empty, err := graph.FromEdges(0, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	edgeless, err := graph.FromEdges(5, 3, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, g := range []*graph.Bipartite{empty, edgeless} {
		for _, o := range allConfigs() {
			res, err := Enumerate(g, o)
			if err != nil {
				t.Fatalf("%s: %v", cfgName(o), err)
			}
			if res.Count != 0 {
				t.Fatalf("%s: %d bicliques in edgeless graph", cfgName(o), res.Count)
			}
		}
	}
}

// Every emitted pair must be a biclique (complete) and maximal — checked
// directly against the graph, independent of the oracle.
func TestEmittedBicliquesAreMaximal(t *testing.T) {
	for seed := int64(100); seed < 112; seed++ {
		g := randomBipartite(t, seed, 30, 10, 90)
		for _, o := range []Options{{Variant: Ada}, {Variant: Ada, Threads: 3}} {
			o.OnBiclique = func(L, R []int32) {
				if len(L) == 0 || len(R) == 0 {
					t.Fatalf("seed %d: empty side emitted", seed)
				}
				for _, u := range L {
					for _, v := range R {
						if !g.HasEdge(u, v) {
							t.Fatalf("seed %d: emitted pair missing edge (%d,%d)", seed, u, v)
						}
					}
				}
				// Maximal in U direction: no u ∉ L adjacent to all of R.
				for u := int32(0); u < int32(g.NU()); u++ {
					inL := false
					for _, x := range L {
						if x == u {
							inL = true
						}
					}
					if inL {
						continue
					}
					all := true
					for _, v := range R {
						if !g.HasEdge(u, v) {
							all = false
							break
						}
					}
					if all {
						t.Fatalf("seed %d: L extensible by u%d", seed, u)
					}
				}
				// Maximal in V direction.
				for v := int32(0); v < int32(g.NV()); v++ {
					inR := false
					for _, x := range R {
						if x == v {
							inR = true
						}
					}
					if inR {
						continue
					}
					all := true
					for _, u := range L {
						if !g.HasEdge(u, v) {
							all = false
							break
						}
					}
					if all {
						t.Fatalf("seed %d: R extensible by v%d", seed, v)
					}
				}
			}
			if _, err := Enumerate(g, o); err != nil {
				t.Fatal(err)
			}
		}
	}
}

func TestNoDuplicateEmissions(t *testing.T) {
	for seed := int64(200); seed < 220; seed++ {
		g := randomBipartite(t, seed, 25, 11, 80)
		for _, o := range allConfigs() {
			keys, _, err := CollectKeys(g, o)
			if err != nil {
				t.Fatal(err)
			}
			for i := 1; i < len(keys); i++ {
				if keys[i] == keys[i-1] {
					t.Fatalf("seed %d %s: duplicate biclique %q", seed, cfgName(o), keys[i])
				}
			}
		}
	}
}

func TestOptionsValidation(t *testing.T) {
	g := graph.PaperExample()
	if _, err := Enumerate(g, Options{Tau: -1}); err == nil {
		t.Fatal("accepted negative tau")
	}
	if _, err := Enumerate(g, Options{Tau: MaxTau + 1}); err == nil {
		t.Fatal("accepted huge tau")
	}
	if _, err := Enumerate(g, Options{Threads: -2}); err == nil {
		t.Fatal("accepted negative threads")
	}
	if _, err := Enumerate(g, Options{Variant: Variant(99)}); err == nil {
		t.Fatal("accepted unknown variant")
	}
	if _, err := Enumerate(g, Options{Variant: Baseline, Threads: 4}); err == nil {
		t.Fatal("accepted parallel Baseline")
	}
	if _, err := Enumerate(g, Options{Variant: Ada, Threads: 4}); err != nil {
		t.Fatal("rejected ParAdaMBE")
	}
}

func TestDeadlineStopsEnumeration(t *testing.T) {
	// A dense-ish graph with plenty of bicliques; an already-expired
	// deadline must stop the run early and report StopDeadline.
	g := randomBipartite(t, 7, 60, 18, 500)
	full, err := Enumerate(g, Options{Variant: Ada})
	if err != nil {
		t.Fatal(err)
	}
	if full.Count == 0 {
		t.Fatal("test graph has no bicliques; pick another seed")
	}
	for _, threads := range []int{0, 4} {
		res, err := Enumerate(g, Options{
			Variant:  Ada,
			Threads:  threads,
			Deadline: time.Now().Add(-time.Second),
		})
		if err != nil {
			t.Fatal(err)
		}
		if res.StopReason != StopDeadline {
			t.Fatalf("threads=%d: run with expired deadline: StopReason = %v, want StopDeadline", threads, res.StopReason)
		}
		if res.Count > full.Count {
			t.Fatalf("threads=%d: partial count %d exceeds full %d", threads, res.Count, full.Count)
		}
	}
	// A generous deadline must not trigger.
	res, err := Enumerate(g, Options{Variant: Ada, Deadline: time.Now().Add(time.Hour)})
	if err != nil {
		t.Fatal(err)
	}
	if res.StopReason != StopNone || res.Count != full.Count {
		t.Fatalf("generous deadline: StopReason=%v count=%d want %d", res.StopReason, res.Count, full.Count)
	}
}

func TestVariantString(t *testing.T) {
	names := map[Variant]string{
		Baseline: "Baseline", LN: "AdaMBE-LN", BIT: "AdaMBE-BIT", Ada: "AdaMBE",
	}
	for v, want := range names {
		if v.String() != want {
			t.Fatalf("%d.String() = %q, want %q", int(v), v.String(), want)
		}
	}
	if Variant(42).String() == "" {
		t.Fatal("unknown variant has empty name")
	}
}

func TestParallelMatchesSerialOnLargerGraph(t *testing.T) {
	g := randomBipartite(t, 11, 300, 80, 2400)
	serial, err := Enumerate(g, Options{Variant: Ada})
	if err != nil {
		t.Fatal(err)
	}
	for _, threads := range []int{2, 3, 8} {
		par, err := Enumerate(g, Options{Variant: Ada, Threads: threads})
		if err != nil {
			t.Fatal(err)
		}
		if par.Count != serial.Count {
			t.Fatalf("threads=%d: count %d, serial %d", threads, par.Count, serial.Count)
		}
	}
}

func TestAllVariantsAgreeOnMediumGraph(t *testing.T) {
	// Larger than the oracle can verify; the four variants plus parallel
	// must still agree with each other exactly.
	g := randomBipartite(t, 13, 200, 60, 1500)
	base, err := Enumerate(g, Options{Variant: Baseline})
	if err != nil {
		t.Fatal(err)
	}
	if base.Count == 0 {
		t.Fatal("degenerate test graph")
	}
	for _, o := range allConfigs() {
		res, err := Enumerate(g, o)
		if err != nil {
			t.Fatal(err)
		}
		if res.Count != base.Count {
			t.Fatalf("%s: count %d, Baseline %d", cfgName(o), res.Count, base.Count)
		}
	}
}
