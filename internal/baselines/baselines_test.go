package baselines

import (
	"math/rand"
	"slices"
	"sort"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/graph"
)

// The competitors by group: the paper's serial group (Fig. 8a left,
// Fig. 13) and parallel group (Fig. 8a right, Fig. 14).
var (
	serialAlgorithms   = []Algorithm{FMBE, PMBE, OOMBEA}
	parallelAlgorithms = []Algorithm{ParMBE, GMBE}
)

// allAlgorithms lists both paper groups, then the post-paper BBK.
func allAlgorithms() []Algorithm {
	return slices.Concat(serialAlgorithms, parallelAlgorithms, []Algorithm{BBK})
}

func collect(t *testing.T, g *graph.Bipartite, alg Algorithm, opts core.Options) ([]string, core.Result) {
	t.Helper()
	var keys []string
	opts.OnBiclique = func(L, R []int32) {
		keys = append(keys, core.BicliqueKey(L, R))
	}
	res, err := Run(g, alg, opts)
	if err != nil {
		t.Fatalf("%s: %v", alg, err)
	}
	sort.Strings(keys)
	return keys, res
}

func TestPaperExampleAllBaselines(t *testing.T) {
	g := graph.PaperExample()
	want := core.BruteForceKeys(g)
	for _, alg := range allAlgorithms() {
		got, res := collect(t, g, alg, core.Options{Threads: 3})
		if res.Count != int64(len(want)) {
			t.Fatalf("%s: count %d, want %d", alg, res.Count, len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%s: biclique sets differ at %d: %q vs %q", alg, i, got[i], want[i])
			}
		}
	}
}

func TestCrossValidationAgainstOracle(t *testing.T) {
	for seed := int64(0); seed < 40; seed++ {
		rng := rand.New(rand.NewSource(seed*13 + 1))
		nu := 1 + rng.Intn(35)
		nv := 1 + rng.Intn(12)
		m := rng.Intn(nu*nv + 1)
		g := gen.Uniform(seed, nu, nv, m)
		want := core.BruteForceKeys(g)
		for _, alg := range allAlgorithms() {
			got, res := collect(t, g, alg, core.Options{Threads: 2})
			if res.Count != int64(len(want)) {
				t.Fatalf("seed %d (nu=%d nv=%d m=%d) %s: count %d, want %d",
					seed, nu, nv, m, alg, res.Count, len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("seed %d %s: sets differ", seed, alg)
				}
			}
		}
	}
}

func TestBaselinesMatchAdaMBEOnMediumGraphs(t *testing.T) {
	graphs := map[string]*graph.Bipartite{
		"uniform":     gen.Uniform(5, 200, 60, 1500),
		"powerlaw":    gen.PowerLaw(6, 300, 80, 2000, 1.4, 1.4),
		"affiliation": gen.Affiliation(7, gen.AffiliationConfig{NU: 150, NV: 60, Communities: 25, MeanU: 6, MeanV: 4, Density: 0.9, NoiseEdges: 200}),
	}
	for name, g := range graphs {
		ref, err := core.Enumerate(g, core.Options{Variant: core.Ada})
		if err != nil {
			t.Fatal(err)
		}
		for _, alg := range allAlgorithms() {
			res, err := Run(g, alg, core.Options{Threads: 4})
			if err != nil {
				t.Fatalf("%s/%s: %v", name, alg, err)
			}
			if res.Count != ref.Count {
				t.Fatalf("%s/%s: count %d, AdaMBE %d", name, alg, res.Count, ref.Count)
			}
		}
	}
}

func TestBaselinesEmptyGraphs(t *testing.T) {
	empty, _ := graph.FromEdges(0, 0, nil)
	edgeless, _ := graph.FromEdges(4, 3, nil)
	for _, g := range []*graph.Bipartite{empty, edgeless} {
		for _, alg := range allAlgorithms() {
			res, err := Run(g, alg, core.Options{Threads: 2})
			if err != nil {
				t.Fatalf("%s: %v", alg, err)
			}
			if res.Count != 0 {
				t.Fatalf("%s: found %d bicliques in edgeless graph", alg, res.Count)
			}
		}
	}
}

func TestBaselinesDeadline(t *testing.T) {
	g := gen.Affiliation(9, gen.AffiliationConfig{NU: 300, NV: 100, Communities: 60, MeanU: 8, MeanV: 6, Density: 0.95})
	full, err := Run(g, FMBE, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if full.Count == 0 {
		t.Fatal("degenerate test graph")
	}
	for _, alg := range allAlgorithms() {
		res, err := Run(g, alg, core.Options{Threads: 2, Deadline: time.Now().Add(-time.Second)})
		if err != nil {
			t.Fatal(err)
		}
		if res.StopReason != core.StopDeadline {
			t.Fatalf("%s: expired deadline not reported: StopReason = %v", alg, res.StopReason)
		}
		if res.Count > full.Count {
			t.Fatalf("%s: partial count %d > full %d", alg, res.Count, full.Count)
		}
	}
}

func TestUnknownAlgorithmRejected(t *testing.T) {
	if _, err := Run(graph.PaperExample(), Algorithm("NOPE"), core.Options{}); err == nil {
		t.Fatal("unknown algorithm accepted")
	}
}

// TestSerialParallelLists checks the groups the other tests iterate: the
// paper groups then BBK, no algorithm twice, and Run accepts each.
func TestSerialParallelLists(t *testing.T) {
	all := allAlgorithms()
	if len(serialAlgorithms) != 3 || len(parallelAlgorithms) != 2 || len(all) != 6 || all[len(all)-1] != BBK {
		t.Fatalf("algorithm lists wrong: %v / %v / %v", serialAlgorithms, parallelAlgorithms, all)
	}
	seen := map[Algorithm]bool{}
	for _, alg := range all {
		if seen[alg] {
			t.Fatalf("%s listed twice: %v", alg, all)
		}
		seen[alg] = true
		if _, err := Run(graph.PaperExample(), alg, core.Options{}); err != nil {
			t.Errorf("Run(%s): %v", alg, err)
		}
	}
}

func TestOOMBEAReportsOriginalIDs(t *testing.T) {
	// ooMBEA permutes V internally; reported R ids must be in g's space.
	g := gen.Uniform(21, 40, 15, 150)
	var bad bool
	opts := core.Options{OnBiclique: func(L, R []int32) {
		for _, v := range R {
			if v < 0 || int(v) >= g.NV() {
				bad = true
			}
		}
		for _, u := range L {
			for _, v := range R {
				if !g.HasEdge(u, v) {
					bad = true
				}
			}
		}
	}}
	if _, err := Run(g, OOMBEA, opts); err != nil {
		t.Fatal(err)
	}
	if bad {
		t.Fatal("ooMBEA reported ids not valid in the original graph")
	}
}

func TestParallelAlgorithmsThreadCountInvariance(t *testing.T) {
	g := gen.PowerLaw(31, 250, 70, 1800, 1.3, 1.5)
	ref, err := Run(g, ParMBE, core.Options{Threads: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, alg := range parallelAlgorithms {
		for _, threads := range []int{1, 2, 8} {
			res, err := Run(g, alg, core.Options{Threads: threads})
			if err != nil {
				t.Fatal(err)
			}
			if res.Count != ref.Count {
				t.Fatalf("%s threads=%d: count %d, want %d", alg, threads, res.Count, ref.Count)
			}
		}
	}
}
