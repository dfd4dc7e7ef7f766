package baselines

import (
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/tle"
	"repro/internal/vset"
)

// BBK is the bipartite Bron–Kerbosch enumerator of Baudin, Danisch &
// Magnien (arXiv:2405.04428): branch-and-bound over the V side with an
// explicit excluded set, a maximum-local-degree pivot, and domination
// pruning. Where the paper's AdaMBE family grows one candidate at a time
// in ascending id order, BBK picks the candidate with the largest
// |N(w) ∩ L| at every node, which (a) absorbs the most co-connected
// candidates into R' per branch, and (b) lets every candidate whose
// L-neighborhood is contained in the pivot's be deleted outright — any
// maximal biclique it participates in lives inside the pivot's subtree.
//
// Invariants at a search node (L ⊆ U, R ⊆ V, P, X ⊆ V):
//
//   - every vertex of R is fully connected to L, and (L, R) itself has
//     already been emitted (preorder emission);
//   - every w ∈ P has 0 < |N(w) ∩ L| < |L|, with that local degree
//     cached alongside it — the pivot scan is O(|P|) with no set work;
//   - every x ∈ X has 0 < |N(x) ∩ L| < |L| and was exhausted earlier
//     (at a previous sibling branch or an earlier root), so a branch
//     whose L' is entirely covered by some x ∈ X enumerates nothing new
//     and is killed.
//
// Each maximal biclique (A, B) is emitted exactly once, under the root
// min(B) — the same root partition the core engines use, and BBK runs
// their root loop (core.RootCursor), which is what makes the durable
// spool's checkpoint/resume protocol (root-tagged emission, frontier
// watermark, StartRoot) carry over unchanged.
type bbkEngine struct {
	g       *graph.Bipartite
	handler core.Handler
	sink    core.Sink
	stop    tle.Stopper
	hook    func(site string) error
	count   int64
	curRoot int32
	ids     vset.Slab[int32]

	// Local metric counters, flushed into core.Options.Metrics at the end so a
	// recovered panic still reports what was gathered.
	nodesGen    int64
	nodesMax    int64
	nodesNonMax int64
	setInts     int64
}

// bbkGallopFactor matches the core engines' merge-vs-gallop crossover.
const bbkGallopFactor = 16

// faultStep fires the injection hook at site; a returned error is treated
// as a failed allocation and degrades the run like a blown memory budget.
func (e *bbkEngine) faultStep(site string) {
	if e.hook == nil {
		return
	}
	if err := e.hook(site); err != nil {
		e.stop.Fail(tle.MemoryExceeded)
	}
}

// runBBK drives the engine under panic isolation, mirroring runMBEA: a
// panic anywhere in the recursion or a user handler is recovered into an
// error wrapping core.ErrPanic, with the monotone partial count (and any
// metrics gathered) still reported.
func runBBK(g *graph.Bipartite, opts core.Options, shared *tle.Shared) (res core.Result, err error) {
	e := &bbkEngine{
		g:       g,
		handler: opts.OnBiclique,
		sink:    opts.Sink,
		hook:    opts.FaultHook,
	}
	e.stop = tle.NewStopper(shared, opts.StopConfig())
	e.ids.OnGrow = e.stop.AddMem
	e.stop.AddMem(twoHopBytes(g)) // two-hop mark table and ordering bit set
	defer func() {
		if m := opts.Metrics; m != nil {
			m.NodesGenerated += e.nodesGen
			m.NodesMaximal += e.nodesMax
			m.NodesNonMaximal += e.nodesNonMax
			m.SetIntersections += e.setInts
		}
		res = core.Result{Count: e.count, StopReason: core.StopReasonOf(e.stop.Reason())}
		if r := recover(); r != nil {
			res.StopReason = core.StopPanic
			err = core.PanicError("BBK", r)
		}
	}()
	th := newTwoHop(g)
	core.NewRootCursor(&opts, g.NV()).Run(&e.stop, func(vp int32) { e.rootNode(vp, th) })
	return res, nil
}

// emit reports one maximal biclique, both sides sorted ascending.
func (e *bbkEngine) emit(L, R []int32) {
	e.count++
	if e.handler != nil {
		e.handler(L, R)
	}
	if e.sink != nil {
		e.sink.Emit(0, e.curRoot, L, R)
	}
}

// intersect writes a ∩ b into dst (capacity = expected result size) and
// returns the count, galloping when the size skew pays for it.
func (e *bbkEngine) intersect(dst, a, b []int32) int {
	e.setInts++
	if len(a) > len(b) {
		a, b = b, a
	}
	if len(a)*bbkGallopFactor <= len(b) {
		return vset.IntersectGallop(dst, a, b)
	}
	return vset.IntersectInto(dst, a, b)
}

func (e *bbkEngine) intersectLen(a, b []int32) int {
	e.setInts++
	return vset.IntersectLen(a, b)
}

// rootNode is BBK's root expansion: unless vp has degree 0 or the run is
// stopping, it generates root vp's first-level node — L = N(vp), the
// excluded set seeded from the two-hop prefix (roots already processed),
// candidates and absorbed vertices from the two-hop suffix — and searches
// its subtree.
func (e *bbkEngine) rootNode(vp int32, th *twoHop) {
	g := e.g
	if e.stop.Hit() || g.DegV(vp) == 0 {
		return
	}
	e.faultStep(SiteBBKNode)
	e.curRoot = vp
	mark := e.ids.Mark()
	defer e.ids.Release(mark)
	lq := g.NeighborsOfV(vp)
	th.gather(vp, lq)
	e.nodesGen++

	// A prefix vertex fully connected to L means every biclique of this
	// subtree carries that earlier root in R and was already enumerated
	// under it: the whole root is dead.
	xq := e.ids.Alloc(len(th.prefix) + len(th.suffix))
	nx := 0
	for _, x := range th.prefix {
		m := e.intersectLen(lq, g.NeighborsOfV(x))
		if m == len(lq) {
			e.nodesNonMax++
			return
		}
		if m > 0 {
			xq[nx] = x
			nx++
		}
	}

	// Split the (sorted) suffix: fully connected → absorbed into R,
	// partially connected → candidate with its local degree cached.
	rq := e.ids.Alloc(1 + len(th.suffix))
	rq[0] = vp
	nr := 1
	pq := e.ids.Alloc(len(th.suffix))
	dq := e.ids.Alloc(len(th.suffix))
	np := 0
	for _, vc := range th.suffix {
		m := e.intersectLen(lq, g.NeighborsOfV(vc))
		if m == len(lq) {
			rq[nr] = vc
			nr++
		} else { // m > 0 by two-hop membership
			pq[np] = vc
			dq[np] = int32(m)
			np++
		}
	}
	e.nodesMax++
	e.emit(lq, rq[:nr])
	if np > 0 {
		e.search(lq, rq[:nr], pq[:np], dq[:np], xq, nx)
	}
}

// search processes one node: P/D are the candidates with cached local
// degrees (consumed destructively — processed pivots migrate into X's
// spare capacity, pivot-dominated candidates are compacted away), X[:nx]
// the excluded set. X must have capacity nx + len(P).
func (e *bbkEngine) search(L, R, P, D, X []int32, nx int) {
	g := e.g
	for len(P) > 0 {
		if e.stop.Hit() {
			return
		}
		e.faultStep(SiteBBKNode)

		// Pivot: maximum cached local degree, first occurrence, so runs
		// are deterministic for a given graph and ordering.
		pi := 0
		for i := 1; i < len(P); i++ {
			if D[i] > D[pi] {
				pi = i
			}
		}
		p := P[pi]

		mark := e.ids.Mark()
		lp := e.ids.Alloc(int(D[pi]))
		lp = lp[:e.intersect(lp, L, g.NeighborsOfV(p))]
		e.nodesGen++

		// Bound: an excluded vertex covering all of L' proves every
		// biclique below was emitted under an earlier branch or root.
		// Survivors with a non-empty intersection carry into the child.
		alive := true
		xq := e.ids.Alloc(nx + len(P) - 1)
		nxq := 0
		for k := 0; k < nx; k++ {
			m := e.intersectLen(lp, g.NeighborsOfV(X[k]))
			if m == len(lp) {
				alive = false
				break
			}
			if m > 0 {
				xq[nxq] = X[k]
				nxq++
			}
		}

		if alive {
			// One pass over P classifies each candidate against L'
			// (absorbed / child candidate / disjoint) and simultaneously
			// compacts this node's P: a candidate whose L-neighborhood is
			// contained in the pivot's (c == D[i]) is dominated — every
			// maximal biclique it joins lies in the pivot's subtree, and
			// p ∈ X subsumes its exclusion checks — so it is deleted.
			rq := e.ids.Alloc(len(R) + len(P))
			adds := e.ids.Alloc(len(P))
			pq := e.ids.Alloc(len(P) - 1)
			dq := e.ids.Alloc(len(P) - 1)
			na, np, keep := 0, 0, 0
			for i := 0; i < len(P); i++ {
				if i == pi {
					adds[na] = p
					na++
					continue
				}
				w := P[i]
				c := int32(e.intersectLen(lp, g.NeighborsOfV(w)))
				if c == int32(len(lp)) {
					adds[na] = w
					na++
				} else if c > 0 {
					pq[np] = w
					dq[np] = c
					np++
				}
				if c < D[i] {
					P[keep] = w
					D[keep] = D[i]
					keep++
				}
			}
			// adds is ascending (a subsequence of the ascending P), R is
			// ascending and disjoint from it: merge keeps R' sorted.
			nr := mergeAscending(rq, R, adds[:na])
			e.nodesMax++
			e.emit(lp, rq[:nr])
			if np > 0 {
				e.search(lp, rq[:nr], pq[:np], dq[:np], xq, nxq)
			}
			P, D = P[:keep], D[:keep]
		} else {
			e.nodesNonMax++
			copy(P[pi:], P[pi+1:])
			copy(D[pi:], D[pi+1:])
			P, D = P[:len(P)-1], D[:len(D)-1]
		}
		e.ids.Release(mark)

		// The pivot is exhausted: future siblings must not re-emit
		// anything containing it.
		X[nx] = p
		nx++
	}
}

// mergeAscending writes the union of two sorted, disjoint ascending lists
// into dst and returns the length written.
func mergeAscending(dst, a, b []int32) int {
	i, j, n := 0, 0, 0
	for i < len(a) && j < len(b) {
		if a[i] < b[j] {
			dst[n] = a[i]
			i++
		} else {
			dst[n] = b[j]
			j++
		}
		n++
	}
	n += copy(dst[n:], a[i:])
	n += copy(dst[n:], b[j:])
	return n
}
