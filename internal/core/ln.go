package core

// searchLN is the AdaMBE large-node procedure (Algorithm 2, lines 8-23):
// enumeration driven entirely by *local* neighborhoods — the computational
// subgraph (CG) of the current node — with the three LN redesigns of
// §III-A:
//
//  1. R'/C' generation intersects against cached local neighborhoods
//     N_p(v_c) instead of global adjacency (no outside-CG accesses);
//  2. L_q is read directly from the cache as N_p(v') (the repetitive
//     L ∩ N(v') intersection of Algorithm 1 line 4 is gone);
//  3. when N_q(v_c) == N_p(v_c), the node that v_c would generate at p is
//     pruned from p's CG (identical local neighborhoods ⇒ identical L).
//
// The maximality check R_q = Γ(L_q) is evaluated locally against the
// excluded set (vertices already traversed at this node or an ancestor,
// with live local neighborhoods): any v ∈ Γ(L_q) survives every ancestor's
// non-empty-intersection filter, so it must be in R_q, the candidate set,
// or the excluded set; fully-connected candidates land in R_q, leaving the
// excluded set as the only source of maximality violations.
//
// candIDs/candNbrs and exclIDs/exclNbrs are parallel arrays; candIDs[j] < 0
// marks an entry pruned by rule 3. With Variant == Ada, entry into a node
// with |L| ≤ τ and a non-empty candidate set switches the whole subtree to
// the bitwise procedure (Algorithm 2, lines 4-7).
func (e *engine) searchLN(L, R []int32, candIDs []int32, candNbrs [][]int32, exclIDs []int32, exclNbrs [][]int32, depth int) {
	if e.stop.Stopped() {
		return
	}
	if e.variant == Ada && len(L) <= e.tau && len(candIDs) > 0 {
		e.searchPromoted(e.buildBitCGFromLN(L, candIDs, candNbrs, exclIDs, exclNbrs), R)
		return
	}

	for i := 0; i < len(candIDs); i++ {
		vp := candIDs[i]
		if vp < 0 { // pruned by rule 3 at this node
			continue
		}
		if e.stop.Hit() {
			return
		}
		e.stop.Fault(SiteNode)
		// Rule 2: L_q is exactly the cached local neighborhood of v'.
		lq := candNbrs[i]
		if e.skipChild != nil && e.skipChild(len(lq)) {
			continue
		}
		ep := e.stampL(lq)
		idMark := e.ids.Mark()
		hdrMark := e.hdrs.Mark()

		rem := len(candIDs) - i - 1
		rq := e.ids.Alloc(len(R) + 1 + rem)
		nr := copy(rq, R)
		rq[nr] = vp
		nr++
		cqIDs := e.ids.Alloc(rem)
		cqNbrs := e.hdrs.Alloc(rem)
		nc := 0

		// Lines 11-19: classify remaining candidates using local data.
		for j := i + 1; j < len(candIDs); j++ {
			vc := candIDs[j]
			if vc < 0 {
				continue
			}
			nb := candNbrs[j]
			buf := e.ids.Alloc(min(len(lq), len(nb)))
			m := e.localIntersect(buf, lq, nb, ep)
			e.ids.ShrinkLast(len(buf), m)
			if e.collect {
				e.metrics.SetIntersections++
				e.metrics.AccessesInsideCG += int64(len(lq) + len(nb))
			}
			if m == len(nb) {
				// Rule 3 (lines 14-15): N_q(v_c) == N_p(v_c); drop v_c
				// from this node's CG — its node here would duplicate
				// the one inside the current child's subtree.
				candIDs[j] = -1
				if e.collect {
					e.metrics.NodesPruned++
				}
			}
			switch {
			case m == len(lq): // fully connected: R_q (line 16-17)
				rq[nr] = vc
				nr++
				e.ids.ShrinkLast(m, 0) // buf not retained
			case m > 0: // partially connected: C_q (line 18-19)
				cqIDs[nc] = vc
				cqNbrs[nc] = buf[:m]
				nc++
			}
		}

		// Line 20: local maximality check against the excluded set, built
		// into the child's excluded set as we go (aborting early on a
		// violation).
		maximal := true
		exCap := len(exclIDs) + i
		exIDs := e.ids.Alloc(exCap)
		exNbrs := e.hdrs.Alloc(exCap)
		nx := 0
		checkExcluded := func(xid int32, xnb []int32) bool {
			buf := e.ids.Alloc(min(len(lq), len(xnb)))
			m := e.localIntersect(buf, lq, xnb, ep)
			e.ids.ShrinkLast(len(buf), m)
			if e.collect {
				e.metrics.SetIntersections++
				e.metrics.AccessesInsideCG += int64(len(lq) + len(xnb))
			}
			if m == len(lq) { // x ∈ Γ(L_q) but can never join R: not maximal
				return false
			}
			if m > 0 {
				exIDs[nx] = xid
				exNbrs[nx] = buf[:m]
				nx++
			} else {
				e.ids.ShrinkLast(m, 0)
			}
			return true
		}
		for k := 0; k < len(exclIDs) && maximal; k++ {
			maximal = checkExcluded(exclIDs[k], exclNbrs[k])
		}
		for k := 0; k < i && maximal; k++ {
			if candIDs[k] >= 0 {
				maximal = checkExcluded(candIDs[k], candNbrs[k])
			}
		}

		e.ctr.NodesLN++
		if maximal {
			if e.collect {
				e.metrics.observeNode(len(lq), nc)
			}
			e.emit(lq, rq[:nr])
			if nc > 0 && (e.skipSubtree == nil || !e.skipSubtree(len(lq), nr, nc)) {
				if e.spawn != nil &&
					e.spawn(lq, rq[:nr], cqIDs[:nc], cqNbrs[:nc], exIDs[:nx], exNbrs[:nx], depth+1) {
					// Subtree handed to the parallel scheduler.
				} else {
					t0, timed := e.enterSmallTimer(len(lq))
					e.searchLN(lq, rq[:nr], cqIDs[:nc], cqNbrs[:nc], exIDs[:nx], exNbrs[:nx], depth+1)
					e.exitSmallTimer(t0, timed)
				}
			}
		}
		e.ids.Release(idMark)
		e.hdrs.Release(hdrMark)
	}
}
