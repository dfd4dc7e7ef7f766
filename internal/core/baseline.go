package core

// searchGlobal is Algorithm 1 from the paper: backtracking enumeration that
// performs every set intersection against the *original* adjacency lists
// and checks maximality by computing Γ(L') globally. It implements the
// Baseline variant; with Variant == BIT it additionally switches to the
// bitwise procedure at nodes with |L| ≤ τ and C ≠ ∅ (AdaMBE-BIT).
//
// L and cand are sorted ascending; R is in traversal order. All slices are
// owned by the caller and only read here.
func (e *engine) searchGlobal(L, R []int32, cand []int32, depth int) {
	if e.stop.Stopped() {
		return
	}
	if e.variant == BIT && len(L) <= e.tau && len(cand) > 0 {
		e.searchPromoted(e.buildBitCGGlobal(L, R, cand), R)
		return
	}

	g := e.g
	for i := 0; i < len(cand); i++ {
		if e.stop.Hit() {
			return
		}
		e.faultStep(SiteNode)
		vp := cand[i]
		mark := e.ids.Mark()

		// Node generation, line #4: L' ← L ∩ N(v') on the global graph.
		nvp := g.NeighborsOfV(vp)
		lq := e.ids.Alloc(min(len(L), len(nvp)))
		n := intersectInto(lq, L, nvp)
		e.ids.ShrinkLast(len(lq), n)
		lq = lq[:n]
		if e.collect {
			e.metrics.SetIntersections++
			e.metrics.AccessesInsideCG += int64(len(L) + n)
			e.metrics.AccessesOutsideCG += int64(len(nvp) - n)
		}
		if n == 0 { // only possible at the root (isolated-ish v')
			e.ids.Release(mark)
			continue
		}
		if e.skipChild != nil && e.skipChild(n) {
			e.ids.Release(mark)
			continue
		}

		// Lines #5-9: split remaining candidates into R' and C'.
		rq := e.ids.Alloc(len(R) + 1 + (len(cand) - i - 1))
		nr := copy(rq, R)
		rq[nr] = vp
		nr++
		cq := e.ids.Alloc(len(cand) - i - 1)
		nc := 0
		for j := i + 1; j < len(cand); j++ {
			vc := cand[j]
			nvc := g.NeighborsOfV(vc)
			m := intersectLen(lq, nvc)
			if e.collect {
				e.metrics.SetIntersections++
				e.metrics.AccessesInsideCG += int64(len(lq) + m)
				e.metrics.AccessesOutsideCG += int64(len(nvc) - m)
			}
			if m == len(lq) {
				rq[nr] = vc
				nr++
			} else if m > 0 {
				cq[nc] = vc
				nc++
			}
		}
		rq, cq = rq[:nr], cq[:nc]

		// Line #10: node check R' = Γ(L'). Every member of R' is fully
		// connected to L' by construction, so R' ⊆ Γ(L') and it suffices
		// to compare sizes. Γ(L') is computed from the global adjacency
		// of L's minimum-degree vertex — the "outside-CG" accesses the
		// paper's Fig. 5 measures.
		e.ctr.NodesLN++
		if e.gammaSize(lq) == nr {
			if e.collect {
				e.metrics.observeNode(len(lq), nc)
			}
			e.emit(lq, rq)
			if e.skipSubtree == nil || !e.skipSubtree(len(lq), nr, nc) {
				t0, timed := e.enterSmallTimer(len(lq))
				e.searchGlobal(lq, rq, cq, depth+1)
				e.exitSmallTimer(t0, timed)
			}
		}
		e.ids.Release(mark)
		// Line #13: C ← C \ {v'} is implicit: later iterations start at i+1.
	}
}

// gammaSize returns |Γ(L)| for non-empty L, scanning the neighbor list of
// L's minimum-degree vertex against the global adjacency.
func (e *engine) gammaSize(L []int32) int {
	g := e.g
	u0 := L[0]
	for _, u := range L[1:] {
		if g.DegU(u) < g.DegU(u0) {
			u0 = u
		}
	}
	cnt := 0
	for _, v := range g.NeighborsOfU(u0) {
		nv := g.NeighborsOfV(v)
		m := intersectLen(L, nv)
		if e.collect {
			e.metrics.SetIntersections++
			e.metrics.AccessesInsideCG += int64(len(L) + m)
			e.metrics.AccessesOutsideCG += int64(len(nv) - m)
		}
		if m == len(L) {
			cnt++
		}
	}
	return cnt
}
