package core

import (
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"sync"
	"testing"

	"repro/internal/bitset"
	"repro/internal/ckpt"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/order"
	"repro/internal/tle"
	"repro/internal/vset"
)

// checkedFrontier wraps a checkpoint frontier and, after every root
// that ends done, checks the watermark the cursor promises: the least
// root begun and not yet ended, or the next root not yet begun. At the
// first root that ends not done it records that root as frozenAt
// instead, before forwarding the End that freezes the frontier.
type checkedFrontier struct {
	t        *testing.T
	fr       *ckpt.Frontier
	mu       sync.Mutex
	start    int32
	next     int32 // next root to begin
	ended    []bool
	frozenAt int32 // -1 until a root ends not done
}

func newCheckedFrontier(t *testing.T, start, end int32) *checkedFrontier {
	return &checkedFrontier{t: t, fr: ckpt.NewFrontier(start, end), start: start, next: start, ended: make([]bool, end), frozenAt: -1}
}

func (c *checkedFrontier) Begin(r int32) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if r != c.next {
		c.t.Errorf("root %d began, want %d next", r, c.next)
	}
	c.next = r + 1
	c.fr.Begin(r)
}

func (c *checkedFrontier) End(r int32, done bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if !done {
		if c.frozenAt < 0 {
			c.frozenAt = c.smallestUnfinished()
		}
		c.fr.End(r, false)
		return
	}
	c.fr.End(r, true)
	c.ended[r] = true
	if got, want := c.fr.Watermark(), c.smallestUnfinished(); !c.fr.Frozen() && got != want {
		c.t.Errorf("after root %d ended: watermark %d, want %d", r, got, want)
	}
}

func (c *checkedFrontier) smallestUnfinished() int32 {
	for r := c.start; r < c.next; r++ {
		if !c.ended[r] {
			return r
		}
	}
	return c.next
}

// runCursor runs workers goroutines over one cursor, each with its own
// stopper on one shared stop state, expanding roots with expand. It
// fails the test unless every goroutine sees its roots in ascending
// order and no root is handed out twice, and returns how many times
// each root was handed out.
func runCursor(t *testing.T, rc *RootCursor, end int32, workers int, expand func(r int32, stop *tle.Stopper)) []int {
	t.Helper()
	shared := &tle.Shared{}
	got := make([][]int32, workers)
	var wg sync.WaitGroup
	for w := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			stop := tle.NewStopper(shared, tle.Config{})
			rc.Run(&stop, func(r int32) {
				got[w] = append(got[w], r)
				expand(r, &stop)
			})
		}()
	}
	wg.Wait()
	seen := make([]int, end)
	for w, roots := range got {
		for i, r := range roots {
			if i > 0 && r <= roots[i-1] {
				t.Errorf("worker %d got root %d after %d", w, r, roots[i-1])
			}
			seen[r]++
			if seen[r] > 1 {
				t.Errorf("root %d handed out %d times", r, seen[r])
			}
		}
	}
	return seen
}

// TestRootClaimsFrontier drives the root cursor against a real
// checkpoint frontier: 8 goroutines take roots one at a time from
// [StartRoot, EndRoot), and after every root ends the watermark must
// equal the smallest unfinished root.
func TestRootClaimsFrontier(t *testing.T) {
	const start, end, workers = 7, 1500, 8
	fr := newCheckedFrontier(t, start, end)
	seen := runCursor(t, NewRootCursor(&Options{StartRoot: start, EndRoot: end, Frontier: fr}, end), end, workers, func(int32, *tle.Stopper) {})
	for r := int32(0); r < end; r++ {
		if want := btoi(r >= start); seen[r] != want {
			t.Errorf("root %d handed out %d times, want %d", r, seen[r], want)
		}
	}
	if got := fr.fr.Watermark(); got != end || !fr.fr.Complete() {
		t.Fatalf("all roots ended: watermark %d complete=%v, want %d and complete", got, fr.fr.Complete(), end)
	}
}

// TestRootClaimStoppedFreezes: a root whose expansion stops the run ends
// not done, every worker winds down, and the watermark freezes where it
// stood, at or below that root.
func TestRootClaimStoppedFreezes(t *testing.T) {
	const start, end, workers, stopAt = 0, 1500, 8, 600
	fr := newCheckedFrontier(t, start, end)
	runCursor(t, NewRootCursor(&Options{Frontier: fr}, end), end, workers, func(r int32, stop *tle.Stopper) {
		if r == stopAt {
			stop.Fail(tle.Canceled)
		}
	})
	if !fr.fr.Frozen() {
		t.Fatal("a stopped root did not freeze the frontier")
	}
	if got := fr.fr.Watermark(); got != fr.frozenAt || got > stopAt {
		t.Fatalf("watermark %d after the freeze, want %d (at or below the stopped root %d)", got, fr.frozenAt, stopAt)
	}
	if fr.fr.Complete() || fr.next >= end {
		t.Fatalf("the run handed out roots up to %d after the stop at %d (complete=%v)", fr.next, stopAt, fr.fr.Complete())
	}
}

func btoi(b bool) int {
	if b {
		return 1
	}
	return 0
}

// TestRootDominationOutOfOrder expands the LN roots one at a time in
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
			e.dom = newRootDom(int(nv), func(int64) {})
			for _, r := range roots {
				e.expandRoot(r)
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
// keep the order of their first visit in the walk over N(vp). It also
// returns the suffix the root orders, sorted: the two-hop vertices after
// vp that the record does not skip.
func referenceRoot(g *graph.Bipartite, vp int32, dom []int32) (rootNode, []int32) {
	want := rootNode{dom: slices.Clone(dom)}
	lq := g.NeighborsOfV(vp)
	if len(lq) == 0 || dom[vp] < vp {
		return want, nil
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
			return rootNode{dom: want.dom}, suffix // not maximal
		}
		want.excl = append(want.excl, x)
		want.exclNbrs = append(want.exclNbrs, nb)
	}
	want.L, want.R = lq, R
	if len(want.cand) == 0 {
		want.excl, want.exclNbrs = nil, nil // no subtree to offer
	}
	return want, suffix
}

// cloneLists deep-copies lists; empty input gives nil, as in rootNode.
func cloneLists(lists [][]int32) [][]int32 {
	var out [][]int32
	for _, l := range lists {
		out = append(out, slices.Clone(l))
	}
	return out
}

// cgLists decodes the bitmap CG a promoted root built, with L* = lq, into
// the lists it stands for: the candidates vids[:nCand], then the excluded
// vertices, each with its mask read back as members of lq.
func cgLists(t *testing.T, cg *bitCG, lq []int32) (cand []int32, candNbrs [][]int32, excl []int32, exclNbrs [][]int32) {
	t.Helper()
	if !slices.Equal(cg.lids, lq) || cg.width != bitset.WordsFor(len(lq)) {
		t.Fatalf("bitmap CG has L* %v at width %d, want %v at width %d", cg.lids, cg.width, lq, bitset.WordsFor(len(lq)))
	}
	lists := make([][]int32, len(cg.vids))
	for k := range cg.vids {
		cg.mask(int32(k)).ForEach(func(bit int) {
			if bit >= len(lq) {
				t.Fatalf("mask of %d has bit %d outside L* (|L*| = %d)", cg.vids[k], bit, len(lq))
			}
			lists[k] = append(lists[k], lq[bit])
		})
	}
	nc := cg.nCand
	return append([]int32(nil), cg.vids[:nc]...), cloneLists(lists[:nc]),
		append([]int32(nil), cg.vids[nc:]...), cloneLists(lists[nc:])
}

// TestLNRootBuild checks LN roots' nodes against referenceRoot, on
// uniform, hub-heavy (power-law) and wide random graphs: R', the candidate
// and excluded ids, their local neighborhoods and the dominators recorded.
// A maximal root with candidates hands its subtree on in one of two forms,
// and both are checked. Lists are captured through the spawn hook, under
// AdaMBE-LN and under AdaMBE at a τ below the roots' degrees. A root that
// AdaMBE promotes (|N(vp)| ≤ τ) must not be offered: its bitmap CG is read
// from e.cg, with SkipSubtree returning true, and decoded into lists, so
// vids must be the candidates in ascending order followed by the excluded
// vertices in first-visit order, nCand must count the candidates, and each
// mask must be the local neighborhood as bits of N(vp). At τ = 128 the
// over64 graph's roots above 64 neighbours build two-word masks.
//
// The record is pre-seeded with entries both below and above each root,
// so both walks over N(vp) meet skipped vertices, and the roots run in a
// random order, as ParAdaMBE workers can finish them, so some meet a
// violator their dominator has not yet recorded. The emission handler
// runs between the two walks and lowers a record there, as a ParAdaMBE
// sibling can: the node must still follow the record as the root first
// read it. The wide graph's two-hop ids span far more words than its
// suffixes, so the suffix ordering sorts there and scans on the other
// graphs; both branches must run.
func TestLNRootBuild(t *testing.T) {
	graphs := map[string]*graph.Bipartite{
		"sparse":   randomBipartite(t, 51, 40, 70, 220),
		"dense":    randomBipartite(t, 52, 25, 40, 500),
		"hubs":     gen.PowerLaw(53, 60, 80, 900, 1.5, 1.2),
		"hubs-asc": order.Apply(gen.PowerLaw(54, 80, 60, 900, 1.2, 1.5), order.DegreeAscending, 0),
		"wide":     randomBipartite(t, 55, 300, 20000, 6000),
		"over64":   randomBipartite(t, 56, 100, 60, 6000),
	}
	configs := []struct {
		name    string
		variant Variant
		tau     int
	}{{"LN", LN, 0}, {"Ada", Ada, 0}, {"Ada-tau2", Ada, 2}, {"Ada-tau128", Ada, 128}}
	scanned := map[bool]int{} // suffixes of two or more, by ordering branch
	lists := map[string]int{} // roots checked as lists, by config
	masks := map[string]int{} // roots checked as a bitmap CG, by config
	for name, g := range graphs {
		t.Run(name, func(t *testing.T) {
			for _, cfg := range configs {
				t.Run(cfg.name, func(t *testing.T) {
					nl, nm := checkLNRoots(t, g, cfg.variant, cfg.tau, scanned)
					lists[cfg.name] += nl
					masks[cfg.name] += nm
				})
			}
		})
	}
	if lists["LN"] == 0 || masks["LN"] != 0 || masks["Ada"] == 0 || lists["Ada-tau2"] == 0 || masks["Ada-tau2"] == 0 || masks["Ada-tau128"] <= masks["Ada"] {
		t.Errorf("roots checked as lists %v and as bitmaps %v: want lists under LN and Ada-tau2, bitmaps under every Ada config and more under Ada-tau128 than Ada", lists, masks)
	}
	if scanned[true] == 0 || scanned[false] == 0 {
		t.Errorf("suffix ordering: %d suffixes scanned, %d sorted; want both branches", scanned[true], scanned[false])
	}
}

// checkLNRoots is TestLNRootBuild on one graph under one variant and τ,
// over every root of a small graph and 400 roots of a larger one, in a
// random order. It counts in scanned the ordering branch each root's
// suffix takes, and returns how many roots offered lists and how many
// built a bitmap CG.
func checkLNRoots(t *testing.T, g *graph.Bipartite, variant Variant, tau int, scanned map[bool]int) (lists, masks int) {
	nv := int32(g.NV())
	rng := rand.New(rand.NewSource(int64(nv)))
	rd := newRootDom(int(nv), func(int64) {})
	for w := range rd {
		if rng.Intn(4) == 0 {
			rd[w].Store(rng.Int31n(nv))
		}
	}
	record := func() []int32 {
		dom := make([]int32, nv)
		for w := range dom {
			dom[w] = rd[w].Load()
		}
		return dom
	}

	var got rootNode
	var lowered []int32 // records the handler lowered, as pairs w, z
	var vp int32
	var promoted, built bool
	e := newEngine(g, Options{Variant: variant, Tau: tau, OnBiclique: func(L, R []int32) {
		got.L, got.R = slices.Clone(L), slices.Clone(R)
		if vp > 0 {
			w, z := rng.Int31n(nv), rng.Int31n(vp)
			rd.record(w, z)
			lowered = append(lowered, w, z)
		}
	}}, &tle.Shared{}, 0)
	e.dom = rd
	e.spawn = func(L, R, candIDs []int32, candNbrs [][]int32, exclIDs []int32, exclNbrs [][]int32, depth int) bool {
		if promoted {
			t.Errorf("root %d (|N(vp)| = %d ≤ τ = %d) was offered to the scheduler", vp, len(L), e.tau)
		}
		got.cand, got.candNbrs = append([]int32(nil), candIDs...), cloneLists(candNbrs)
		got.excl, got.exclNbrs = append([]int32(nil), exclIDs...), cloneLists(exclNbrs)
		lists++
		return true
	}
	e.skipSubtree = func(int, int, int) bool {
		built = true
		return promoted
	}
	roots := rng.Perm(int(nv))
	for _, r := range roots[:min(len(roots), 400)] {
		vp = int32(r)
		want, suffix := referenceRoot(g, vp, record())
		if n := len(suffix); n > 1 {
			scanned[vset.ScanSorts(n, suffix[0], suffix[n-1])]++
		}
		promoted = variant == Ada && g.DegV(vp) <= e.tau
		got, lowered, built = rootNode{}, lowered[:0], false
		e.expandLNRoot(vp)
		if promoted && built {
			got.cand, got.candNbrs, got.excl, got.exclNbrs = cgLists(t, &e.cg, g.NeighborsOfV(vp))
			masks++
		}
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
	return lists, masks
}

// TestRootScratchChargesGrowth checks that the root expansions' two-hop
// buffers charge the memory gauge only what each growth adds, so the gauge
// holds their retained footprint, and that a new engine charges the
// suffix ordering's bit set with its stamp tables.
func TestRootScratchChargesGrowth(t *testing.T) {
	g := gen.PowerLaw(56, 200, 3000, 6000, 1.5, 1.2)
	shared := &tle.Shared{}
	e := newEngine(g, Options{Variant: Ada}, shared, 0)
	if got, want := shared.MemBytes(), int64(3*g.NU()+2*g.NV())*4+int64(bitset.WordsFor(g.NV()))*8; got != want {
		t.Fatalf("a new engine charged %d bytes, want %d: stamp tables, root list and ordering bit set", got, want)
	}
	e.dom = newRootDom(g.NV(), func(int64) {})
	base := shared.MemBytes()
	var held int64
	for vp := range int32(g.NV()) {
		lq := g.NeighborsOfV(vp)
		if vp%2 == 0 {
			e.countTwoHop(vp, lq)
		} else {
			e.gatherTwoHop(vp, lq)
		}
		held = int64(cap(e.rs.suffix)+cap(e.rs.prefix)) * 4
		if got := shared.MemBytes() - base; got != held {
			t.Fatalf("after root %d: gauge charged %d bytes, suffix and prefix retain %d", vp, got, held)
		}
	}
	if held == 0 {
		t.Fatal("no root grew the two-hop buffers")
	}
}
