package mbe_test

import (
	"testing"
	"time"

	mbe "repro"
)

func TestFinderAPIMaximums(t *testing.T) {
	g := paperGraph(t)
	// From the hand enumeration of G0: the maximum edge biclique is
	// ({u0,u4,u5,u6},{v0,v2,v3}) with 12 edges (Figure 1's biclique);
	// ({u0..u2,u4..u7},{v0}) has only 7 edges but 8 vertices.
	edge, err := mbe.MaximumEdgeBiclique(g, mbe.FindOptions{})
	if err != nil || !edge.Found {
		t.Fatalf("edge: %v %v", edge, err)
	}
	if edge.Best.Edges() != 12 {
		t.Fatalf("max edge biclique = %d edges, want 12 (%v)", edge.Best.Edges(), edge.Best)
	}
	bal, err := mbe.MaximumBalancedBiclique(g, mbe.FindOptions{})
	if err != nil || !bal.Found {
		t.Fatalf("balance: %v %v", bal, err)
	}
	if bal.Best.Balance() != 3 { // ({u0,u4,u5,u6},{v0,v2,v3}) → min(4,3)=3
		t.Fatalf("max balance = %d, want 3", bal.Best.Balance())
	}
	vtx, err := mbe.MaximumVertexBiclique(g, mbe.FindOptions{})
	if err != nil || !vtx.Found {
		t.Fatalf("vertex: %v %v", vtx, err)
	}
	if vtx.Best.Vertices() != 8 { // ({u0,u1,u2,u4,u5,u6,u7},{v0})
		t.Fatalf("max vertices = %d, want 8", vtx.Best.Vertices())
	}
}

func TestFinderAPIPersonalized(t *testing.T) {
	g := paperGraph(t)
	// Bicliques containing v1: ({u0,u1,u2},{v0,v1}) with 6 edges,
	// ({u0,u2},{v0,v1,v2}) with 6, ({u0},{v0..v3}) with 4.
	res, err := mbe.PersonalizedMaximumBiclique(g, 1, mbe.FindOptions{})
	if err != nil || !res.Found {
		t.Fatalf("personalized: %v %v", res, err)
	}
	if res.Best.Edges() != 6 {
		t.Fatalf("personalized max = %d edges, want 6 (%v)", res.Best.Edges(), res.Best)
	}
	hasV1 := false
	for _, v := range res.Best.R {
		if v == 1 {
			hasV1 = true
		}
	}
	if !hasV1 {
		t.Fatal("personalized result does not contain v1")
	}
}

func TestFinderAPISizeBounded(t *testing.T) {
	g := paperGraph(t)
	// Maximal bicliques of G0 with |L| ≥ 4 and |R| ≥ 2:
	// ({u0,u4,u5,u6},{v0,v2,v3}), ({u0,u2,u4,u5,u6},{v0,v2}),
	// ({u0,u3,u4,u5,u6},{v2,v3}) → 3.
	n, err := mbe.EnumerateSizeBounded(g, 4, 2, nil, mbe.FindOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if n != 3 {
		t.Fatalf("size-bounded count = %d, want 3", n)
	}
	// Bounds of 1,1 recover the full count.
	n, err = mbe.EnumerateSizeBounded(g, 1, 1, nil, mbe.FindOptions{})
	if err != nil || n != 9 {
		t.Fatalf("1,1 bound = %d, want 9 (%v)", n, err)
	}
}

func TestFinderAPITopK(t *testing.T) {
	g := paperGraph(t)
	top, err := mbe.TopKEdgeBicliques(g, 3, mbe.FindOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(top) != 3 {
		t.Fatalf("got %d results", len(top))
	}
	// G0's three largest maximal bicliques by edges: 12, 10, 10.
	if top[0].Edges() != 12 || top[1].Edges() != 10 || top[2].Edges() != 10 {
		t.Fatalf("top-3 edges = %d,%d,%d; want 12,10,10",
			top[0].Edges(), top[1].Edges(), top[2].Edges())
	}
	if _, err := mbe.TopKEdgeBicliques(g, 0, mbe.FindOptions{}); err == nil {
		t.Fatal("k=0 accepted")
	}
}

func TestFinderAPIParallelAndDeadline(t *testing.T) {
	g := mbe.GenerateAffiliation(3, mbe.AffiliationConfig{
		NU: 600, NV: 250, Communities: 80, MeanU: 9, MeanV: 5, Density: 0.9, NoiseEdges: 500,
	})
	serial, err := mbe.MaximumEdgeBiclique(g, mbe.FindOptions{})
	if err != nil || !serial.Found {
		t.Fatal(err)
	}
	par, err := mbe.MaximumEdgeBiclique(g, mbe.FindOptions{Threads: 4})
	if err != nil || !par.Found {
		t.Fatal(err)
	}
	if par.Best.Edges() != serial.Best.Edges() {
		t.Fatalf("parallel optimum %d != serial %d", par.Best.Edges(), serial.Best.Edges())
	}
	timed, err := mbe.MaximumEdgeBiclique(g, mbe.FindOptions{Deadline: time.Now().Add(-time.Second)})
	if err != nil {
		t.Fatal(err)
	}
	if !timed.TimedOut {
		t.Fatal("deadline not honored")
	}
}
