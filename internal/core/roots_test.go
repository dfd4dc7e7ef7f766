package core

import (
	"math/rand"
	"sort"
	"sync"
	"testing"

	"repro/internal/ckpt"
	"repro/internal/tle"
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
