package core

import (
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"sync"
	"testing"

	"repro/internal/ckpt"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/order"
	"repro/internal/tle"
	"repro/internal/vset"
)

// claimRoots runs workers goroutines that claim one root at a time from
// rc until it is exhausted, releasing each claim through release. It
// fails the test unless every root of [start, end) is handed out exactly
// once and each goroutine sees its roots in ascending order.
func claimRoots(t *testing.T, rc *rootCursor, start, end int32, workers int, release func(r int32)) {
	t.Helper()
	claimed := make([][]int32, workers)
	var wg sync.WaitGroup
	for w := range claimed {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				lo, hi := rc.claim()
				if lo == hi {
					return
				}
				claimed[w] = append(claimed[w], lo)
				if hi != lo+1 {
					t.Errorf("one-root claim handed out [%d, %d)", lo, hi)
				}
				release(lo)
			}
		}()
	}
	wg.Wait()

	seen := make([]int, end)
	for w, roots := range claimed {
		for i, r := range roots {
			if i > 0 && r <= roots[i-1] {
				t.Errorf("worker %d claimed %d after %d", w, r, roots[i-1])
			}
			if r < start || r >= end {
				t.Fatalf("worker %d claimed %d outside [%d, %d)", w, r, start, end)
			}
			seen[r]++
		}
	}
	for r := start; r < end; r++ {
		if seen[r] != 1 {
			t.Errorf("root %d claimed %d times", r, seen[r])
		}
	}
}

// smallestUnfinished is the watermark the claim protocol promises: the
// least claimed root not yet released, or the next unclaimed root. A
// concurrent claim never changes it, so only releases need serializing
// against it.
func smallestUnfinished(rc *rootCursor, start int32, released []bool) int32 {
	rc.mu.Lock()
	next := rc.next
	rc.mu.Unlock()
	for r := start; r < next; r++ {
		if !released[r] {
			return r
		}
	}
	return next
}

// TestRootClaimsFrontier drives the ParAdaMBE claim protocol against a
// real checkpoint frontier: 8 goroutines claim one root at a time from
// [StartRoot, EndRoot), and after every release the watermark must equal
// the smallest unfinished claim.
func TestRootClaimsFrontier(t *testing.T) {
	const start, end, workers = 7, 1500, 8
	fr := ckpt.NewFrontier(start, end)
	rc := newRootCursor(start, end, end, true, fr, func(int64) {})
	var mu sync.Mutex // serializes each release with its watermark check
	released := make([]bool, end)
	claimRoots(t, rc, start, end, workers, func(r int32) {
		mu.Lock()
		defer mu.Unlock()
		rc.release(r, false)
		released[r] = true
		if got, want := fr.Watermark(), smallestUnfinished(rc, start, released); got != want {
			t.Errorf("after releasing %d: watermark %d, want %d", r, got, want)
		}
	})
	if got := fr.Watermark(); got != end || !fr.Complete() {
		t.Fatalf("all claims released: watermark %d complete=%v, want %d and complete", got, fr.Complete(), end)
	}
}

// TestRootClaimStoppedFreezes: a claim ended as stopped (its subtree may
// be incomplete) freezes the watermark where it stood, below that root,
// however many later claims finish.
func TestRootClaimStoppedFreezes(t *testing.T) {
	const start, end, workers, stopAt = 0, 1500, 8, 600
	fr := ckpt.NewFrontier(start, end)
	rc := newRootCursor(start, end, end, true, fr, func(int64) {})
	var mu sync.Mutex
	released := make([]bool, end)
	frozenAt := int32(-1)
	claimRoots(t, rc, start, end, workers, func(r int32) {
		mu.Lock()
		defer mu.Unlock()
		if r == stopAt {
			frozenAt = smallestUnfinished(rc, start, released)
			rc.release(r, true)
			return
		}
		rc.release(r, false)
		released[r] = true
	})
	if !fr.Frozen() {
		t.Fatal("a stopped claim did not freeze the frontier")
	}
	if got := fr.Watermark(); got != frozenAt || got > stopAt {
		t.Fatalf("watermark %d after the freeze, want %d (at or below the stopped root %d)", got, frozenAt, stopAt)
	}
	if fr.Complete() {
		t.Fatal("a frontier with a stopped claim reports complete")
	}
}

// TestRootDominationOutOfOrder runs the LN root loop one root at a time in
// orders a ParAdaMBE schedule can produce at worst — every root after all
// later ones, and random orders — sharing one domination record. Each
// root then reads records written by roots above it, which must not make
// it skip anything: the bicliques must equal the serial run's.
func TestRootDominationOutOfOrder(t *testing.T) {
	for _, seed := range []int64{41, 42, 43} {
		g := randomBipartite(t, seed, 30, 60, 260)
		want, _, err := CollectKeys(g, Options{Variant: Ada})
		if err != nil {
			t.Fatal(err)
		}
		nv := int32(g.NV())
		reverse := make([]int32, nv)
		for i := range reverse {
			reverse[i] = nv - 1 - int32(i)
		}
		rng := rand.New(rand.NewSource(seed))
		orders := [][]int32{reverse}
		for range 3 {
			perm := make([]int32, nv)
			for i, p := range rng.Perm(int(nv)) {
				perm[i] = int32(p)
			}
			orders = append(orders, perm)
		}
		for oi, roots := range orders {
			var got []string
			e := newEngine(g, Options{Variant: Ada, OnBiclique: func(L, R []int32) {
				got = append(got, BicliqueKey(L, R))
			}}, &tle.Shared{}, 0)
			rc := newRootCursor(0, nv, int(nv), true, nil, func(int64) {})
			for _, r := range roots {
				rc.next, rc.end = r, r+1
				e.runLNRoot(rc)
			}
			sort.Strings(got)
			if !keysEqual(got, want) {
				t.Errorf("seed %d order %d: biclique set differs from the serial run (%d vs %d)", seed, oi, len(got), len(want))
			}
		}
	}
}

// rootNode is what one LN root produces: the emitted biclique (L, R) when
// the root is maximal, the candidates and excluded vertices it offers for
// its subtree with their local neighborhoods, and the domination record
// once it is done.
type rootNode struct {
	L, R     []int32
	cand     []int32
	candNbrs [][]int32
	excl     []int32
	exclNbrs [][]int32
	dom      []int32
}

// referenceRoot builds root vp's node from sorted set intersections of
// N(vp) with each two-hop vertex's adjacency list, reading the record dom
// as it stood when the root began. Candidates ascend; excluded vertices
// keep the order of their first visit in the walk over N(vp).
func referenceRoot(g *graph.Bipartite, vp int32, dom []int32) rootNode {
	want := rootNode{dom: slices.Clone(dom)}
	lq := g.NeighborsOfV(vp)
	if len(lq) == 0 || dom[vp] < vp {
		return want
	}
	seen := map[int32]bool{vp: true}
	var suffix, prefix []int32
	for _, u := range lq {
		for _, w := range g.NeighborsOfU(u) {
			if seen[w] {
				continue
			}
			seen[w] = true
			switch {
			case dom[w] < vp:
			case w > vp:
				suffix = append(suffix, w)
			default:
				prefix = append(prefix, w)
			}
		}
	}
	slices.Sort(suffix)
	local := func(w int32) []int32 {
		nb := g.NeighborsOfV(w)
		buf := make([]int32, min(len(lq), len(nb)))
		return buf[:vset.IntersectInto(buf, lq, nb)]
	}
	R := []int32{vp}
	for _, w := range suffix {
		nb := local(w)
		if len(nb) == g.DegV(w) {
			want.dom[w] = min(want.dom[w], vp)
		}
		if len(nb) == len(lq) {
			R = append(R, w)
		} else {
			want.cand = append(want.cand, w)
			want.candNbrs = append(want.candNbrs, nb)
		}
	}
	for _, x := range prefix {
		nb := local(x)
		if len(nb) == len(lq) {
			return rootNode{dom: want.dom} // not maximal
		}
		want.excl = append(want.excl, x)
		want.exclNbrs = append(want.exclNbrs, nb)
	}
	want.L, want.R = lq, R
	if len(want.cand) == 0 {
		want.excl, want.exclNbrs = nil, nil // no subtree to offer
	}
	return want
}

// cloneLists deep-copies lists; empty input gives nil, as in rootNode.
func cloneLists(lists [][]int32) [][]int32 {
	var out [][]int32
	for _, l := range lists {
		out = append(out, slices.Clone(l))
	}
	return out
}

// TestLNRootBuild checks every LN root's node against referenceRoot, on
// uniform and hub-heavy (power-law) random graphs: R', the candidate and
// excluded ids, their local neighborhoods and the dominators recorded.
// The cursor is pre-seeded with records both below and above each root,
// so both walks over N(vp) meet skipped vertices, and the roots run in a
// random order, as ParAdaMBE workers can finish them, so some meet a
// violator their dominator has not yet recorded. The emission handler
// runs between the two walks and lowers a record there, as a ParAdaMBE
// sibling can: the node must still follow the record as the root first
// read it.
func TestLNRootBuild(t *testing.T) {
	graphs := map[string]*graph.Bipartite{
		"sparse":   randomBipartite(t, 51, 40, 70, 220),
		"dense":    randomBipartite(t, 52, 25, 40, 500),
		"hubs":     gen.PowerLaw(53, 60, 80, 900, 1.5, 1.2),
		"hubs-asc": order.Apply(gen.PowerLaw(54, 80, 60, 900, 1.2, 1.5), order.DegreeAscending, 0),
	}
	for name, g := range graphs {
		t.Run(name, func(t *testing.T) {
			nv := int32(g.NV())
			rng := rand.New(rand.NewSource(int64(nv)))
			rc := newRootCursor(0, nv, int(nv), false, nil, func(int64) {})
			for w := range rc.dom {
				if rng.Intn(4) == 0 {
					rc.dom[w].Store(rng.Int31n(nv))
				}
			}
			record := func() []int32 {
				dom := make([]int32, nv)
				for w := range dom {
					dom[w] = rc.dom[w].Load()
				}
				return dom
			}

			var got rootNode
			var lowered []int32 // records the handler lowered, as pairs w, z
			var vp int32
			e := newEngine(g, Options{Variant: Ada, OnBiclique: func(L, R []int32) {
				got.L, got.R = slices.Clone(L), slices.Clone(R)
				if vp > 0 {
					w, z := rng.Int31n(nv), rng.Int31n(vp)
					rc.recordDominator(w, z)
					lowered = append(lowered, w, z)
				}
			}}, &tle.Shared{}, 0)
			e.spawn = func(L, R, candIDs []int32, candNbrs [][]int32, exclIDs []int32, exclNbrs [][]int32, depth int) bool {
				got.cand, got.candNbrs = append([]int32(nil), candIDs...), cloneLists(candNbrs)
				got.excl, got.exclNbrs = append([]int32(nil), exclIDs...), cloneLists(exclNbrs)
				return true
			}
			var rs rootScratch
			for _, r := range rng.Perm(int(nv)) {
				vp = int32(r)
				want := referenceRoot(g, vp, record())
				got, lowered = rootNode{}, lowered[:0]
				e.expandLNRoot(rc, vp, &rs)
				got.dom = record()
				for i := 0; i < len(lowered); i += 2 {
					w, z := lowered[i], lowered[i+1]
					want.dom[w] = min(want.dom[w], z)
				}
				for _, nbrs := range append(got.candNbrs, got.exclNbrs...) {
					if !slices.IsSorted(nbrs) {
						t.Fatalf("root %d: local neighborhood %v is not sorted", vp, nbrs)
					}
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("root %d:\n got  %+v\n want %+v", vp, got, want)
				}
			}
		})
	}
}
