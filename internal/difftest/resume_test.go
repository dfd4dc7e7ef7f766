package difftest

import (
	"fmt"
	"testing"

	"repro/internal/engine"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/order"
)

// resumeGraphs builds the 20-graph corpus for the resume matrix: a
// spread of uniform and power-law shapes small enough that the full
// matrix (graphs × interrupt points × engine cells) stays inside the
// CI budget but big enough that interrupts land mid-enumeration.
func resumeGraphs() []*graph.Bipartite {
	var gs []*graph.Bipartite
	for seed := int64(0); seed < 12; seed++ {
		gs = append(gs, gen.Uniform(seed, 40+int(seed)*2, 20+int(seed), 150+10*int(seed)))
	}
	for seed := int64(0); seed < 8; seed++ {
		gs = append(gs, gen.PowerLaw(100+seed, 50, 25, 200, 1.5, 1.8))
	}
	return gs
}

// TestResumeEquality is the tentpole acceptance matrix: for every graph
// × interrupt point × engine cell (serial AdaMBE, ParAdaMBE at 4 and 8
// threads and at 2 threads under random order, BBK, and the serial
// Baseline, AdaMBE-LN and AdaMBE-BIT, so every rooted engine's root
// expansion runs under the root loop's frontier protocol), an
// interrupted-then-resumed spooled run must produce a spool whose digest
// equals an uninterrupted enumeration of the same graph — zero dropped,
// zero duplicated bicliques, proven by multiset fingerprint rather than
// count. The ParAdaMBE cells run at τ = 4, below most roots' degrees,
// because a root promoted to a bitmap is never offered to the scheduler:
// at the default τ these graphs detach no subtree. Each of those cells
// must detach some over the matrix, so subtrees are in flight when the
// interrupts land. TestResumeDenseSubtrees and
// TestResumeRepeatedInterrupts run ParAdaMBE at the default τ.
func TestResumeEquality(t *testing.T) {
	graphs := resumeGraphs()
	if len(graphs) != 20 {
		t.Fatalf("corpus has %d graphs, want 20", len(graphs))
	}
	interrupts := []int64{1, 40, 400} // first emission, early, mid-run
	cells := []struct {
		name string
		c    Config
	}{
		{"threads=1", Config{Engine: engine.AdaMBE, Order: order.DegreeAscending, Threads: 1}},
		{"threads=4", Config{Engine: engine.ParAdaMBE, Order: order.DegreeAscending, Threads: 4, Tau: 4}},
		{"threads=8", Config{Engine: engine.ParAdaMBE, Order: order.DegreeAscending, Threads: 8, Tau: 4}},
		// Under ASC order a root is dominated only by an earlier root with
		// an identical neighbourhood; random order makes dominated roots
		// common, so this cell exercises ParAdaMBE's out-of-order
		// domination record, with interrupts inside the parallel root loop.
		{"threads=2/order=rand", Config{Engine: engine.ParAdaMBE, Order: order.Random, Seed: 3, Threads: 2, Tau: 4}},
		{"engine=BBK", Config{Engine: engine.BBK, Order: order.DegreeAscending, Threads: 1}},
		{"engine=Baseline", Config{Engine: engine.Baseline, Order: order.DegreeAscending, Threads: 1}},
		{"engine=AdaMBE-LN", Config{Engine: engine.AdaMBELN, Order: order.DegreeAscending, Threads: 1}},
		{"engine=AdaMBE-BIT", Config{Engine: engine.AdaMBEBIT, Order: order.DegreeAscending, Threads: 1}},
	}

	// Subtrees detached beyond the root seeds, and runs, per cell.
	detached, runs := make([]int64, len(cells)), make([]int, len(cells))
	for gi, g := range graphs {
		// One oracle digest per graph: the ordinary in-memory serial run.
		oracle, err := Run(g, Config{Engine: engine.AdaMBE, Order: order.DegreeAscending, Threads: 1})
		if err != nil {
			t.Fatalf("graph %d: oracle: %v", gi, err)
		}
		for _, after := range interrupts {
			for ci, cell := range cells {
				name := fmt.Sprintf("g%02d/interrupt=%d/%s", gi, after, cell.name)
				c := cell.c
				t.Run(name, func(t *testing.T) {
					res, err := RunSpooled(g, c, t.TempDir(), []int64{after})
					if err != nil {
						t.Fatal(err)
					}
					detached[ci] += res.Detached
					runs[ci]++
					if !res.Digest.Equal(oracle) {
						t.Errorf("[%s] resumed spool digest %s != oracle %s (attempts=%d)",
							c, res.Digest, oracle, res.Attempts)
					}
				})
			}
		}
	}
	for ci, cell := range cells {
		whole := runs[ci] == len(graphs)*len(interrupts) // not narrowed by -run
		if whole && cell.c.Threads > 1 && detached[ci] == 0 {
			t.Errorf("%s: no run of the matrix detached a subtree beyond its root seeds", cell.name)
		}
	}
}

// TestResumeActuallyResumes pins that the matrix above is not passing
// vacuously: with an interrupt after the very first emission, the run
// cannot complete in one attempt, so a resume must have happened.
func TestResumeActuallyResumes(t *testing.T) {
	g := gen.Uniform(7, 60, 30, 240)
	res, err := RunSpooled(g, Config{Engine: engine.AdaMBE, Order: order.DegreeAscending, Threads: 1},
		t.TempDir(), []int64{1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Attempts < 2 {
		t.Fatalf("interrupt-at-first-emission completed in %d attempt(s): the resume path was never exercised", res.Attempts)
	}
}

// TestSpooledUninterruptedMatchesRun: the spool replay digest of a run
// that was never interrupted equals the in-memory digest — the durable
// path loses and invents nothing even without the resume machinery,
// across orderings (the spool stores original-graph ids, mapped back
// through the run's permutation exactly like the in-memory handler).
func TestSpooledUninterruptedMatchesRun(t *testing.T) {
	g := gen.PowerLaw(42, 60, 30, 250, 1.6, 1.9)
	for _, c := range []Config{
		{Engine: engine.AdaMBE, Order: order.DegreeAscending, Threads: 1},
		{Engine: engine.AdaMBE, Order: order.Random, Seed: 5, Threads: 1},
		{Engine: engine.ParAdaMBE, Order: order.UnilateralCore, Threads: 4},
		{Engine: engine.AdaMBEBIT, Order: order.DegreeAscending, Threads: 1},
		{Engine: engine.AdaMBELN, Order: order.DegreeAscending, Threads: 1},
	} {
		want, err := Run(g, c)
		if err != nil {
			t.Fatalf("[%s] %v", c, err)
		}
		res, err := RunSpooled(g, c, t.TempDir(), nil)
		if err != nil {
			t.Fatalf("[%s] %v", c, err)
		}
		if !res.Digest.Equal(want) {
			t.Errorf("[%s] spool digest %s != in-memory digest %s", c, res.Digest, want)
		}
		if res.Attempts != 1 {
			t.Errorf("[%s] uninterrupted run took %d attempts", c, res.Attempts)
		}
	}
}

// TestResumeDenseSubtrees interrupts runs on a graph dense enough that
// the amortized stop check (tle.CheckEvery node visits per poll) trips
// mid-subtree rather than at a root boundary. Regression for the bug
// where a root whose subtree was cut short by a stop was still reported
// inline-done, lifting the watermark past partially-emitted output.
func TestResumeDenseSubtrees(t *testing.T) {
	g := gen.Uniform(11, 200, 100, 2400)
	oracle, err := Run(g, Config{Engine: engine.AdaMBE, Order: order.DegreeAscending, Threads: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []Config{
		{Engine: engine.AdaMBE, Order: order.DegreeAscending, Threads: 1},
		{Engine: engine.ParAdaMBE, Order: order.DegreeAscending, Threads: 4},
	} {
		res, err := RunSpooled(g, c, t.TempDir(), []int64{oracle.Count / 3})
		if err != nil {
			t.Fatalf("[%s] %v", c, err)
		}
		if !res.Digest.Equal(oracle) {
			t.Errorf("[%s] resumed digest %s != oracle %s (attempts=%d)", c, res.Digest, oracle, res.Attempts)
		}
	}
}

// TestResumeRepeatedInterrupts chains several interrupts on one spool —
// the "flaky node" scenario — and still requires exact equality.
func TestResumeRepeatedInterrupts(t *testing.T) {
	g := gen.Uniform(3, 70, 35, 300)
	oracle, err := Run(g, Config{Engine: engine.AdaMBE, Order: order.DegreeAscending, Threads: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, threads := range []int{1, 8} {
		c := Config{Engine: engine.AdaMBE, Order: order.DegreeAscending, Threads: 1}
		if threads > 1 {
			c = Config{Engine: engine.ParAdaMBE, Order: order.DegreeAscending, Threads: threads}
		}
		res, err := RunSpooled(g, c, t.TempDir(), []int64{1, 3, 10, 50, 100})
		if err != nil {
			t.Fatalf("[%s] %v", c, err)
		}
		if !res.Digest.Equal(oracle) {
			t.Errorf("[%s] after %d attempts: digest %s != oracle %s", c, res.Attempts, res.Digest, oracle)
		}
	}
}
