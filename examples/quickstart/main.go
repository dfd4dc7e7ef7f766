// Quickstart: build a small bipartite graph, enumerate its maximal
// bicliques with AdaMBE, and print them; then count a bigger graph's with
// ParAdaMBE. It ends in a self-check and exits non-zero when a count is
// wrong.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	mbe "repro"
)

func main() {
	// The paper's Figure 1 graph: 9 users (U) × 4 items (V).
	var edges []mbe.Edge
	for v, us := range [][]int32{
		{0, 1, 2, 4, 5, 6, 7}, // N(v0)
		{0, 1, 2},             // N(v1)
		{0, 2, 3, 4, 5, 6},    // N(v2)
		{0, 3, 4, 5, 6, 8},    // N(v3)
	} {
		for _, u := range us {
			edges = append(edges, mbe.Edge{U: u, V: int32(v)})
		}
	}
	g, err := mbe.FromEdges(9, 4, edges)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("graph: %s\n\n", g.Stats())

	// Enumerate with the default algorithm (serial AdaMBE, τ = 128,
	// ascending-degree ordering). The callback's slices are reused by the
	// engine — copy them if you keep them.
	var found int
	res, err := mbe.Enumerate(g, mbe.Options{
		OnBiclique: func(L, R []int32) {
			found++
			fmt.Printf("  biclique %d: L=%v R=%v\n", found, L, R)
		},
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\n%d maximal bicliques in %v\n", res.Count, res.Elapsed)
	if res.Count != 9 || found != 9 {
		log.Fatalf("Figure 1 has 9 maximal bicliques; counted %d, delivered %d", res.Count, found)
	}

	// The same count, in parallel, on a bigger synthetic graph.
	big := mbe.GenerateAffiliation(1, mbe.AffiliationConfig{
		NU: 5000, NV: 1500, Communities: 600,
		MeanU: 10, MeanV: 4, Density: 0.9, NoiseEdges: 4000,
	})
	pres, err := mbe.Enumerate(big, mbe.Options{Algorithm: mbe.ParAdaMBE})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("parallel run: %d maximal bicliques on %s in %v\n",
		pres.Count, big.Stats(), pres.Elapsed)

	// Every algorithm enumerates the same bicliques: a serial run must
	// count as many.
	sres, err := mbe.Enumerate(big, mbe.Options{})
	if err != nil {
		log.Fatal(err)
	}
	if sres.Count != pres.Count {
		log.Fatalf("serial AdaMBE counted %d maximal bicliques, ParAdaMBE %d", sres.Count, pres.Count)
	}
}
