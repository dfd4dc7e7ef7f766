package difftest

import (
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/gen"
	"repro/internal/graph"
)

// fuzzGraphFromBytes decodes an arbitrary byte string into a small
// bipartite graph: the first two bytes size the sides (1–16 each), each
// following byte pair is an edge. Same encoding as the core package's
// FuzzEnumerateAgreement, so corpus entries transfer.
func fuzzGraphFromBytes(data []byte) *graph.Bipartite {
	if len(data) < 2 {
		return nil
	}
	nu := 1 + int(data[0]%16)
	nv := 1 + int(data[1]%16)
	var edges []graph.Edge
	for i := 2; i+1 < len(data) && len(edges) < 512; i += 2 {
		edges = append(edges, graph.Edge{
			U: int32(int(data[i]) % nu),
			V: int32(int(data[i+1]) % nv),
		})
	}
	g, err := graph.FromEdges(nu, nv, edges)
	if err != nil {
		return nil
	}
	return g
}

// encodeGraph inverts fuzzGraphFromBytes for seeding: it renders a
// generated graph (both sides ≤ 16) into the fuzz byte encoding.
func encodeGraph(g *graph.Bipartite) []byte {
	data := []byte{byte(g.NU() - 1), byte(g.NV() - 1)}
	for _, e := range g.Edges() {
		data = append(data, byte(e.U), byte(e.V))
	}
	return data
}

// FuzzBBK asserts BBK's digest equals the brute-force oracle's on
// arbitrary small graphs, across every ordering. The seed corpus covers
// the generator families (uniform, power-law with hub skew, affiliation)
// plus degenerate shapes. Any disagreement is ddmin-minimized and saved
// as a replayable .repro under testdata/repros before failing.
func FuzzBBK(f *testing.F) {
	f.Add([]byte{9, 4, 0, 0, 1, 0, 2, 0, 4, 0, 0, 1, 1, 1, 0, 2, 2, 2})
	f.Add([]byte{1, 1, 0, 0})
	f.Add([]byte{16, 16})
	f.Add([]byte{4, 1, 0, 0, 1, 0, 2, 0, 3, 0}) // star
	for seed := int64(0); seed < 4; seed++ {
		f.Add(encodeGraph(gen.Uniform(seed, 10, 8, 30)))
		f.Add(encodeGraph(gen.PowerLaw(seed+10, 14, 6, 40, 1.2, 2.5)))
		f.Add(encodeGraph(gen.Affiliation(seed+20, gen.AffiliationConfig{
			NU: 12, NV: 8, Communities: 3, MeanU: 3, MeanV: 3, Density: 0.9, NoiseEdges: 6,
		})))
	}
	configs := Matrix(MatrixOpts{Threads: []int{1}, Seed: 5})
	f.Fuzz(func(t *testing.T, data []byte) {
		g := fuzzGraphFromBytes(data)
		if g == nil {
			return
		}
		want := BruteDigest(g)
		for _, c := range configs {
			if c.Engine != engine.BBK {
				continue
			}
			got, err := Run(g, c)
			if err != nil {
				t.Fatalf("[%s]: %v", c, err)
			}
			if got.Equal(want) {
				continue
			}
			ref := Config{Engine: engine.AdaMBE, Order: c.Order, Seed: c.Seed, Threads: 1}
			min := Minimize(g, MismatchProperty(c, ref), 0)
			path, serr := SaveRepro("testdata/repros", Repro{
				Graph:  min,
				A:      c,
				B:      ref,
				Expect: ExpectMismatch,
				Note:   fmt.Sprintf("FuzzBBK: digest %s != oracle %s (|U|=%d |V|=%d |E|=%d)", got, want, g.NU(), g.NV(), g.NumEdges()),
			})
			if serr != nil {
				t.Errorf("saving repro: %v", serr)
			} else {
				t.Logf("minimized repro written to %s (%d edges)", path, min.NumEdges())
			}
			t.Fatalf("[%s]: digest %s != oracle %s", c, got, want)
		}
	})
}

// TestFuzzBBKOracleCap documents why FuzzBBK never trips the oracle's
// size guard: the decoder caps |V| at 16, under core.MaxBruteForceV.
func TestFuzzBBKOracleCap(t *testing.T) {
	if 16 > core.MaxBruteForceV {
		t.Fatalf("fuzz decoder V cap 16 exceeds oracle cap %d", core.MaxBruteForceV)
	}
}
