package baselines

import (
	"sort"
	"testing"

	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/graph"
)

// recordingSink captures the durable emission stream (worker, root, copy
// of both sides) for assertions.
type recordingSink struct {
	workers []int
	roots   []int32
	keys    []string
}

func (s *recordingSink) Emit(worker int, root int32, L, R []int32) {
	s.workers = append(s.workers, worker)
	s.roots = append(s.roots, root)
	s.keys = append(s.keys, core.BicliqueKey(L, R))
}

// TestBBKRootPartition pins the property the spool checkpoint protocol
// depends on: every biclique is emitted under root min(R), by worker 0,
// with both sides sorted. The frontier calls BBK's root loop makes are
// checked for every rooted engine by internal/engine's
// TestFrontierContract.
func TestBBKRootPartition(t *testing.T) {
	g := gen.Uniform(33, 80, 40, 600)
	sink := &recordingSink{}
	minR := make([]int32, 0, 16)
	res, err := Run(g, BBK, core.Options{
		Sink: sink,
		OnBiclique: func(L, R []int32) {
			minR = append(minR, R[0])
			for i := 1; i < len(R); i++ {
				if R[i] <= R[i-1] {
					t.Fatal("R side not sorted ascending")
				}
			}
			for i := 1; i < len(L); i++ {
				if L[i] <= L[i-1] {
					t.Fatal("L side not sorted ascending")
				}
			}
		},
	})
	if err != nil || res.StopReason != core.StopNone {
		t.Fatalf("run: %v %v", res.StopReason, err)
	}
	if int64(len(sink.roots)) != res.Count {
		t.Fatalf("sink saw %d emissions, count %d", len(sink.roots), res.Count)
	}
	for i, root := range sink.roots {
		if sink.workers[i] != 0 {
			t.Fatalf("emission %d from worker %d, BBK is serial", i, sink.workers[i])
		}
		if root != minR[i] {
			t.Fatalf("emission %d tagged root %d, want min(R) = %d", i, root, minR[i])
		}
	}
}

// TestBBKStartRoot pins resume semantics: a run started at watermark w
// emits exactly the full run's bicliques whose root tag is ≥ w.
func TestBBKStartRoot(t *testing.T) {
	g := gen.PowerLaw(34, 90, 45, 700, 1.5, 1.7)
	full := &recordingSink{}
	if _, err := Run(g, BBK, core.Options{Sink: full}); err != nil {
		t.Fatal(err)
	}
	w := int32(g.NV() / 3)
	want := make([]string, 0, len(full.keys))
	for i, root := range full.roots {
		if root >= w {
			want = append(want, full.keys[i])
		}
	}
	part := &recordingSink{}
	if _, err := Run(g, BBK, core.Options{Sink: part, StartRoot: w}); err != nil {
		t.Fatal(err)
	}
	sort.Strings(want)
	got := append([]string(nil), part.keys...)
	sort.Strings(got)
	if len(got) != len(want) {
		t.Fatalf("StartRoot=%d emitted %d bicliques, want %d", w, len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("StartRoot=%d biclique sets differ at %d", w, i)
		}
	}
}

// TestBBKMetrics checks the node accounting: every emission is a maximal
// node, the split sums, and set work is recorded.
func TestBBKMetrics(t *testing.T) {
	g := gen.Affiliation(35, gen.AffiliationConfig{NU: 60, NV: 30, Communities: 8, MeanU: 5, MeanV: 4, Density: 0.9, NoiseEdges: 60})
	var m core.Metrics
	res, err := Run(g, BBK, core.Options{Metrics: &m})
	if err != nil {
		t.Fatal(err)
	}
	if m.NodesMaximal != res.Count {
		t.Fatalf("NodesMaximal %d != count %d", m.NodesMaximal, res.Count)
	}
	if m.NodesGenerated != m.NodesMaximal+m.NodesNonMaximal {
		t.Fatalf("node split doesn't sum: %d != %d + %d", m.NodesGenerated, m.NodesMaximal, m.NodesNonMaximal)
	}
	if m.SetIntersections == 0 {
		t.Fatal("no set intersections recorded")
	}
}

// TestBBKPivotFixtures drives the pivot choice through its two extremes —
// a dense near-biclique (huge local degrees, heavy absorption and
// domination) and a star-heavy skew (hub pivots absorb whole stars) — and
// anchors both to the brute-force oracle.
func TestBBKPivotFixtures(t *testing.T) {
	graphs := map[string]*graph.Bipartite{
		"dense":      gen.Uniform(402, 24, 16, 300),
		"star-heavy": gen.PowerLaw(403, 120, 20, 400, 1.1, 2.8),
	}
	for name, g := range graphs {
		want := core.BruteForceKeys(g)
		got, res := collect(t, g, BBK, core.Options{})
		if res.Count != int64(len(want)) {
			t.Fatalf("%s: count %d, want %d", name, res.Count, len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%s: biclique sets differ at %d", name, i)
			}
		}
	}
}
