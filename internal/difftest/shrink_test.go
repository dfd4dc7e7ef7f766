package difftest

import (
	"bytes"
	"path/filepath"
	"testing"

	"repro/internal/engine"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/order"
)

// reprosDir is the package-local store of minimized repro fixtures; the
// end-to-end test regenerates its fixture deterministically, so running
// the suite leaves the checked-in tree unchanged.
const reprosDir = "testdata/repros"

// TestInjectedMutationCaughtAndMinimized is the end-to-end exercise the
// acceptance criteria require: a seeded emission mutation (one biclique
// silently dropped via internal/faultinject) must be caught by the
// fingerprint sweep, shrunk by the delta-debugging minimizer, and written
// as a standalone repro under testdata/repros.
func TestInjectedMutationCaughtAndMinimized(t *testing.T) {
	g := gen.Affiliation(303, gen.AffiliationConfig{
		NU: 40, NV: 24, Communities: 6, MeanU: 4, MeanV: 3, Density: 0.9, NoiseEdges: 30,
	})
	clean := Config{Engine: engine.AdaMBE, Order: order.DegreeAscending}
	faulty := clean
	faulty.Fault = &FaultSpec{Kind: "skip", Visit: 1}

	// 1. The sweep catches the mutation (count differs by one here, but
	// the assertion is digest equality, which also catches count-neutral
	// corruption).
	mismatches, err := Sweep(g, []Config{clean, faulty})
	if err != nil {
		t.Fatal(err)
	}
	if len(mismatches) != 1 {
		t.Fatalf("sweep found %d mismatches, want 1", len(mismatches))
	}
	m := mismatches[0]
	if m.DigA.Count != m.DigB.Count+1 {
		t.Fatalf("skip@1 should drop exactly one biclique: %s vs %s", m.DigA, m.DigB)
	}

	// 2. The minimizer shrinks the failing graph to a 1-minimal witness:
	// with skip@1 any single biclique witnesses the drop, so the minimum
	// is a single edge.
	prop := MismatchProperty(clean, faulty)
	if !prop(g) {
		t.Fatal("property must hold on the original failing graph")
	}
	min := Minimize(g, prop, 0)
	if !prop(min) {
		t.Fatal("minimized graph lost the mismatch")
	}
	if min.NumEdges() != 1 {
		t.Fatalf("minimized to %d edges, want 1 (graph %dx%d)", min.NumEdges(), min.NU(), min.NV())
	}
	if min.NU() != 1 || min.NV() != 1 {
		t.Fatalf("compaction left %dx%d vertices, want 1x1", min.NU(), min.NV())
	}

	// 3. The repro is standalone: written, re-read, and replayed from the
	// file alone it still reproduces the recorded outcome.
	path, err := SaveRepro(reprosDir, Repro{
		Graph:  min,
		A:      clean,
		B:      faulty,
		Expect: ExpectMismatch,
		Note:   "seeded emission-skip mutation, end-to-end shrinker fixture",
	})
	if err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadRepro(path)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.A != clean || loaded.B.Fault == nil || *loaded.B.Fault != *faulty.Fault {
		t.Fatalf("configs did not round-trip: A=%s B=%s", loaded.A, loaded.B)
	}
	outcome, da, db, err := loaded.Replay()
	if err != nil {
		t.Fatal(err)
	}
	if outcome != ExpectMismatch {
		t.Fatalf("replay outcome %q, want %q (digests %s vs %s)", outcome, ExpectMismatch, da, db)
	}
}

// TestDupMutationCaughtAndMinimized covers the double-emission flavour,
// which count-based checks see but only when the count check is exact —
// and which digests catch even when paired with a drop.
func TestDupMutationCaughtAndMinimized(t *testing.T) {
	g := gen.Uniform(304, 40, 20, 160)
	clean := Config{Engine: engine.AdaMBE}
	faulty := clean
	faulty.Fault = &FaultSpec{Kind: "dup", Visit: 1}

	prop := MismatchProperty(clean, faulty)
	if !prop(g) {
		t.Fatal("dup mutation not visible")
	}
	min := Minimize(g, prop, 0)
	if min.NumEdges() != 1 {
		t.Fatalf("minimized to %d edges, want 1", min.NumEdges())
	}
}

// TestReplayAllRepros replays every checked-in (or nightly-produced)
// repro and asserts its recorded expectation: "mismatch" fixtures must
// still disagree (they carry injected faults or open bugs), "agree"
// fixtures are regression tests for bugs since fixed.
func TestReplayAllRepros(t *testing.T) {
	paths, err := ListRepros(reprosDir)
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) == 0 {
		t.Skip("no repros recorded")
	}
	for _, p := range paths {
		t.Run(filepath.Base(p), func(t *testing.T) {
			r, err := LoadRepro(p)
			if err != nil {
				t.Fatal(err)
			}
			outcome, da, db, err := r.Replay()
			if err != nil {
				t.Fatal(err)
			}
			if outcome != r.Expect {
				t.Fatalf("replay outcome %q, recorded expectation %q\n  [%s] %s\n  [%s] %s",
					outcome, r.Expect, r.A, da, r.B, db)
			}
		})
	}
}

func TestReproRoundTrip(t *testing.T) {
	g := gen.Uniform(55, 9, 6, 20)
	r := Repro{
		Graph:  g,
		A:      Config{Engine: engine.ParAdaMBE, Order: order.Random, Seed: 9, Threads: 8, Tau: 128},
		B:      Config{Engine: engine.GMBE, Order: order.UnilateralCore, Threads: 4},
		Expect: ExpectAgree,
		Note:   "round-trip fixture",
	}
	var buf bytes.Buffer
	if err := WriteRepro(&buf, r); err != nil {
		t.Fatal(err)
	}
	got, err := ReadRepro(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if got.A != r.A || got.B != r.B || got.Expect != r.Expect || got.Note != r.Note {
		t.Fatalf("metadata did not round-trip:\n got %+v\nwant %+v", got, r)
	}
	if got.Graph.NU() != g.NU() || got.Graph.NV() != g.NV() {
		t.Fatalf("dims did not round-trip: %dx%d vs %dx%d", got.Graph.NU(), got.Graph.NV(), g.NU(), g.NV())
	}
	ea, eb := g.Edges(), got.Graph.Edges()
	if len(ea) != len(eb) {
		t.Fatalf("edge count %d vs %d", len(eb), len(ea))
	}
	for i := range ea {
		if ea[i] != eb[i] {
			t.Fatalf("edge %d: %v vs %v", i, eb[i], ea[i])
		}
	}
	// And the replay machinery accepts it end to end.
	if outcome, _, _, err := got.Replay(); err != nil || outcome != ExpectAgree {
		t.Fatalf("replay: outcome=%q err=%v", outcome, err)
	}
}

// TestMinimizePreservesArbitraryProperty checks the minimizer against a
// property unrelated to engine digests (contains a specific edge), to
// pin its contract: result satisfies prop and is 1-minimal under budget.
func TestMinimizePreservesArbitraryProperty(t *testing.T) {
	g := gen.Uniform(8, 30, 15, 120)
	target := g.Edges()[17]
	prop := func(h *graph.Bipartite) bool {
		if int(target.U) >= h.NU() || int(target.V) >= h.NV() {
			return false
		}
		return h.HasEdge(target.U, target.V)
	}
	min := Minimize(g, prop, 0)
	if !prop(min) {
		t.Fatal("minimized graph lost the property")
	}
	if min.NumEdges() != 1 {
		t.Fatalf("want single surviving edge, got %d", min.NumEdges())
	}
}
