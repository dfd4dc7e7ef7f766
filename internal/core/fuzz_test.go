package core

import (
	"testing"

	"repro/internal/graph"
)

// graphFromBytes decodes an arbitrary byte string into a small bipartite
// graph: the first two bytes size the sides (1-16 each), each following
// byte pair is an edge.
func graphFromBytes(data []byte) *graph.Bipartite {
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

// FuzzEnumerateAgreement drives every engine variant over arbitrary small
// graphs and checks exact agreement with the brute-force closure oracle —
// the strongest correctness property the package has, fuzz-amplified.
func FuzzEnumerateAgreement(f *testing.F) {
	f.Add([]byte{9, 4, 0, 0, 1, 0, 2, 0, 4, 0, 0, 1, 1, 1, 0, 2, 2, 2})
	f.Add([]byte{1, 1, 0, 0})
	f.Add([]byte{16, 16})
	f.Fuzz(func(t *testing.T, data []byte) {
		g := graphFromBytes(data)
		if g == nil {
			return
		}
		want := BruteForceKeys(g)
		for _, o := range []Options{
			{Variant: Baseline},
			{Variant: LN},
			{Variant: BIT, Tau: 3},
			{Variant: Ada, Tau: 5},
			{Variant: Ada},
			// Padded to two words: the only case that reaches
			// searchBitPacked on graphs this small.
			{Variant: Ada, Tau: 128, PadBitmaps: true},
			{Variant: Ada, Threads: 2},
		} {
			got, res, err := CollectKeys(g, o)
			if err != nil {
				t.Fatalf("%v: %v", o.Variant, err)
			}
			if res.Count != int64(len(want)) {
				t.Fatalf("%v tau=%d threads=%d: count %d, want %d (|U|=%d |V|=%d |E|=%d)",
					o.Variant, o.Tau, o.Threads, res.Count, len(want), g.NU(), g.NV(), g.NumEdges())
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("%v: biclique sets differ at %d", o.Variant, i)
				}
			}
		}
	})
}
