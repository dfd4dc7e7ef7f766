package mbe_test

import (
	"bytes"
	"fmt"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	mbe "repro"
)

// paperGraph builds the Figure 1 example through the public API.
func paperGraph(t *testing.T) *mbe.Graph {
	t.Helper()
	var edges []mbe.Edge
	for v, us := range [][]int32{
		{0, 1, 2, 4, 5, 6, 7},
		{0, 1, 2},
		{0, 2, 3, 4, 5, 6},
		{0, 3, 4, 5, 6, 8},
	} {
		for _, u := range us {
			edges = append(edges, mbe.Edge{U: u, V: int32(v)})
		}
	}
	g, err := mbe.FromEdges(9, 4, edges)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func allAlgorithms() []mbe.Algorithm {
	return []mbe.Algorithm{
		mbe.AdaMBE, mbe.ParAdaMBE, mbe.BaselineMBE, mbe.AdaMBELN, mbe.AdaMBEBIT,
		mbe.FMBE, mbe.PMBE, mbe.OOMBEA, mbe.ParMBE, mbe.GMBESim, mbe.BBK,
	}
}

func TestPaperExampleThroughPublicAPI(t *testing.T) {
	g := paperGraph(t)
	for _, a := range allAlgorithms() {
		rec := mbe.NewRecorder(mbe.RunInfo{Algorithm: a.String()})
		res, err := mbe.Enumerate(g, mbe.Options{Algorithm: a, Threads: 2, Obs: rec})
		if err != nil {
			t.Fatalf("%v: %v", a, err)
		}
		if res.Count != 9 {
			t.Fatalf("%v: count %d, want 9", a, res.Count)
		}
		// Every engine reports to an attached Recorder, with or without
		// probes of its own.
		if snap := rec.Snapshot(); snap.Bicliques != 9 || snap.Phase != "done" {
			t.Errorf("%v: recorder bicliques=%d phase=%q, want 9, done", a, snap.Bicliques, snap.Phase)
		}
	}
}

func TestCount(t *testing.T) {
	n, err := mbe.Count(paperGraph(t))
	if err != nil || n != 9 {
		t.Fatalf("Count = %d, %v", n, err)
	}
}

func TestHandlerReceivesValidBicliquesAllAlgorithms(t *testing.T) {
	g := mbe.GenerateUniform(3, 30, 12, 120)
	for _, a := range allAlgorithms() {
		seen := map[string]bool{}
		opts := mbe.Options{Algorithm: a, Threads: 2}
		opts.OnBiclique = func(L, R []int32) {
			if len(L) == 0 || len(R) == 0 {
				t.Fatalf("%v: empty side", a)
			}
			ls := append([]int32(nil), L...)
			rs := append([]int32(nil), R...)
			sort.Slice(ls, func(i, j int) bool { return ls[i] < ls[j] })
			sort.Slice(rs, func(i, j int) bool { return rs[i] < rs[j] })
			var b strings.Builder
			for _, u := range ls {
				b.WriteString(string(rune('A' + u%26)))
			}
			b.WriteByte('|')
			for _, v := range rs {
				b.WriteString(string(rune('a' + v%26)))
				if v < 0 || int(v) >= g.NV() {
					t.Fatalf("%v: R id %d out of range", a, v)
				}
			}
			for _, u := range L {
				for _, v := range R {
					if !g.HasEdge(u, v) {
						t.Fatalf("%v: missing edge (%d,%d)", a, u, v)
					}
				}
			}
			_ = seen[b.String()]
		}
		if _, err := mbe.Enumerate(g, opts); err != nil {
			t.Fatalf("%v: %v", a, err)
		}
	}
}

func TestOrderingsAgree(t *testing.T) {
	g := mbe.GeneratePowerLaw(5, 80, 30, 500, 1.4, 1.4)
	var counts []int64
	for _, o := range []mbe.Ordering{
		mbe.OrderAscendingDegree, mbe.OrderRandom, mbe.OrderUnilateralCore, mbe.OrderNone,
	} {
		res, err := mbe.Enumerate(g, mbe.Options{Ordering: o, Seed: 42})
		if err != nil {
			t.Fatal(err)
		}
		counts = append(counts, res.Count)
	}
	for _, c := range counts[1:] {
		if c != counts[0] {
			t.Fatalf("ordering changed the count: %v", counts)
		}
	}
}

func TestDatasetRegistryThroughAPI(t *testing.T) {
	g, err := mbe.Dataset("UL")
	if err != nil {
		t.Fatal(err)
	}
	if g.NumEdges() == 0 {
		t.Fatal("empty dataset")
	}
	if _, err := mbe.Dataset("missing"); err == nil {
		t.Fatal("unknown dataset accepted")
	}
}

func TestKonectRoundTripThroughAPI(t *testing.T) {
	in := "% comment\n10 20\n11 20\n10 21\n"
	g, err := mbe.ReadKonect(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if g.NumEdges() != 3 {
		t.Fatalf("edges = %d", g.NumEdges())
	}
	var buf bytes.Buffer
	if err := g.WriteBinary(&buf); err != nil {
		t.Fatal(err)
	}
	g2, err := mbe.ReadBinary(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if g2.NumEdges() != g.NumEdges() || g2.NU() != g.NU() {
		t.Fatal("binary round trip changed graph")
	}
}

func TestDeadlineThroughAPI(t *testing.T) {
	g := mbe.GenerateAffiliation(7, mbe.AffiliationConfig{
		NU: 300, NV: 100, Communities: 50, MeanU: 8, MeanV: 5, Density: 0.9,
	})
	res, err := mbe.Enumerate(g, mbe.Options{Deadline: time.Now().Add(-time.Second)})
	if err != nil {
		t.Fatal(err)
	}
	if res.StopReason != mbe.StopDeadline {
		t.Fatalf("expired deadline not reported: StopReason = %v", res.StopReason)
	}
}

func TestMetricsThroughAPI(t *testing.T) {
	g := mbe.GenerateUniform(9, 60, 20, 300)
	var m mbe.Metrics
	if _, err := mbe.Enumerate(g, mbe.Options{Algorithm: mbe.BaselineMBE, Metrics: &m}); err != nil {
		t.Fatal(err)
	}
	if m.NodesGenerated == 0 {
		t.Fatal("no metrics recorded")
	}
}

func TestAlgorithmAndStatsStrings(t *testing.T) {
	for _, a := range allAlgorithms() {
		if a.String() == "" || strings.HasPrefix(a.String(), "Algorithm(") {
			t.Fatalf("bad name for %d: %q", int(a), a.String())
		}
	}
	if mbe.Algorithm(99).String() != "Algorithm(99)" {
		t.Fatal("unknown algorithm name wrong")
	}
	g := paperGraph(t)
	if g.Stats().NU != 9 || g.Stats().NV != 4 {
		t.Fatalf("stats: %+v", g.Stats())
	}
}

func TestBadOptionsThroughAPI(t *testing.T) {
	g := paperGraph(t)
	if _, err := mbe.Enumerate(g, mbe.Options{Algorithm: mbe.Algorithm(99)}); err == nil {
		t.Fatal("unknown algorithm accepted")
	}
	if _, err := mbe.Enumerate(g, mbe.Options{Ordering: mbe.Ordering(99)}); err == nil {
		t.Fatal("unknown ordering accepted")
	}
	if _, err := mbe.Enumerate(g, mbe.Options{Tau: -3}); err == nil {
		t.Fatal("negative tau accepted")
	}
}

func TestOrientThroughAPI(t *testing.T) {
	g, err := mbe.FromEdges(2, 5, []mbe.Edge{{U: 0, V: 0}, {U: 1, V: 4}})
	if err != nil {
		t.Fatal(err)
	}
	og := g.Orient()
	if og.NV() != 2 || og.NU() != 5 {
		t.Fatalf("orient failed: %d,%d", og.NU(), og.NV())
	}
	if len(og.NeighborsOfU(0)) != len(g.NeighborsOfV(0)) {
		t.Fatal("neighbor access broken after orient")
	}
}

// TestUnorderedEmitThroughPublicAPI runs ParAdaMBE with concurrent handler
// delivery and every ordering (the ordering path maps R back through the
// permutation, which must not share scratch between concurrent calls).
func TestUnorderedEmitThroughPublicAPI(t *testing.T) {
	g, err := mbe.Dataset("UL")
	if err != nil {
		t.Fatal(err)
	}
	for _, ord := range []mbe.Ordering{mbe.OrderAscendingDegree, mbe.OrderNone} {
		want := make(map[string]int)
		if _, err := mbe.Enumerate(g, mbe.Options{Ordering: ord, OnBiclique: func(L, R []int32) {
			want[keyOf(L, R)]++
		}}); err != nil {
			t.Fatal(err)
		}
		var mu sync.Mutex
		got := make(map[string]int)
		res, err := mbe.Enumerate(g, mbe.Options{
			Algorithm:     mbe.ParAdaMBE,
			Threads:       8,
			Ordering:      ord,
			UnorderedEmit: true,
			OnBiclique: func(L, R []int32) {
				k := keyOf(L, R)
				mu.Lock()
				got[k]++
				mu.Unlock()
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		if res.Count != int64(len(want)) {
			t.Fatalf("ordering %d: count %d, serial %d", ord, res.Count, len(want))
		}
		for k, n := range want {
			if got[k] != n {
				t.Fatalf("ordering %d: biclique %q delivered %d times, want %d", ord, k, got[k], n)
			}
		}
	}
}

func keyOf(L, R []int32) string {
	l := append([]int32(nil), L...)
	r := append([]int32(nil), R...)
	sort.Slice(l, func(i, j int) bool { return l[i] < l[j] })
	sort.Slice(r, func(i, j int) bool { return r[i] < r[j] })
	return fmt.Sprint(l, "|", r)
}
