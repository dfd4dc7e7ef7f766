package core

import (
	"math/bits"

	"repro/internal/bitset"
	"repro/internal/obs"
)

// bitCG is a bitmap-represented computational subgraph (§III-B): one
// fixed-width bit mask per live V-side vertex, each bit addressing a member
// of the L* set at bitmap-creation time. With the default τ = 64 every mask
// is a single uint64 and each intersection is one AND, as in the paper.
// A bitCG is created once at a node with |L*| ≤ τ, C* ≠ ∅ and reused by
// the entire subtree. Bitmap subtrees never nest, so each engine owns a
// single bitCG whose storage is recycled across creations (reset), keeping
// steady-state enumeration allocation-free.
type bitCG struct {
	width     int      // words per mask (⌈|L*|/64⌉)
	lids      []int32  // bit position → U id (sorted; equals L*)
	vids      []int32  // CG-local index → V id
	masks     []uint64 // len(vids)*width packed masks
	nCand     int      // vids[0:nCand] are the creation node's candidates
	framesBuf []uint64 // per-depth L_q scratch (depth ≤ |L*|), width words each
	rootBuf   []uint64 // the root L_q ("all of L*") for the multi-word path

	// charge, if non-nil, accounts retained-capacity growth (bytes) to the
	// run's memory gauge.
	charge func(bytes int64)
}

func (cg *bitCG) charged(oldCap, newCap int) {
	if cg.charge != nil && newCap > oldCap {
		cg.charge(int64(newCap-oldCap) * 8)
	}
}

// reset prepares the pooled CG for a new subtree: width and L* ids set,
// mask storage for nMasks vertices zeroed, vertex list emptied.
func (cg *bitCG) reset(width int, lids []int32, nMasks int) {
	cg.width = width
	cg.lids = lids
	cg.vids = cg.vids[:0]
	need := nMasks * width
	if cap(cg.masks) < need {
		cg.charged(cap(cg.masks), need)
		cg.masks = make([]uint64, need)
	} else {
		cg.masks = cg.masks[:need]
		clear(cg.masks)
	}
}

// growMask appends storage for one more zeroed mask (global builder path).
// Growth is a single doubling allocation — and a single gauge charge — per
// reallocation, not one word-sized append per mask.
func (cg *bitCG) growMask() {
	need := len(cg.masks) + cg.width
	if need > cap(cg.masks) {
		before := cap(cg.masks)
		grown := make([]uint64, need, max(need, 2*cap(cg.masks)))
		copy(grown, cg.masks)
		cg.masks = grown
		cg.charged(before, cap(cg.masks))
		return
	}
	// Reusing capacity retained from an earlier, larger subtree: the region
	// beyond len may hold that subtree's stale mask bits.
	cg.masks = cg.masks[:need]
	clear(cg.masks[need-cg.width:])
}

func (cg *bitCG) mask(k int32) bitset.Mask {
	return bitset.Mask(cg.masks[int(k)*cg.width : (int(k)+1)*cg.width])
}

func (cg *bitCG) frame(d int) bitset.Mask {
	need := (d + 1) * cg.width
	if cap(cg.framesBuf) < need {
		// One doubling allocation per growth. The prefix holds the live L_q
		// frames of every ancestor depth and must be copied over; the new
		// frame itself needs no zeroing (MaskAnd fully overwrites it).
		before := cap(cg.framesBuf)
		grown := make([]uint64, max(need, 2*cap(cg.framesBuf)))
		copy(grown, cg.framesBuf)
		cg.framesBuf = grown
		cg.charged(before, cap(cg.framesBuf))
	}
	cg.framesBuf = cg.framesBuf[:cap(cg.framesBuf)]
	return bitset.Mask(cg.framesBuf[d*cg.width : (d+1)*cg.width])
}

// maskWidth returns the mask word-width for a bitmap whose L* has lenL
// members: sized to the actual L* normally, padded to τ under PadBitmaps
// (the paper's cost model for Fig. 11).
func (e *engine) maskWidth(lenL int) int {
	if e.padBits {
		return bitset.WordsFor(e.tau)
	}
	return bitset.WordsFor(lenL)
}

// searchPromoted switches a node (L, R, C) with |L| ≤ τ and C ≠ ∅ to the
// bitwise procedure (Algorithm 2 lines 4-7) over cg, its freshly built
// bitmap CG: the stop check, the SiteBitmap fault step, the promotion and
// bitmap counters, and the mbe/bit-subtree trace region around
// searchBitRoot. Every switch (searchGlobal, searchLN, promoteRoot)
// enters here; only how each builds cg differs.
func (e *engine) searchPromoted(cg *bitCG, R []int32) {
	if e.stop.Stopped() {
		return
	}
	e.ctr.Promotions++
	e.faultStep(SiteBitmap)
	e.observeBitmap(cg.width)
	reg := obs.TraceRegion("mbe/bit-subtree")
	e.searchBitRoot(cg, R)
	reg.End()
}

// observeBitmap counts a freshly built CG and its width histogram row.
func (e *engine) observeBitmap(width int) {
	e.ctr.Bitmaps++
	e.metrics.BitWidthHist[min(width, len(e.metrics.BitWidthHist))-1]++
}

// buildBitCGFromLN materializes the bitmap CG from a node's cached local
// neighborhoods (Algorithm 2 line 5, reached from the LN procedure). No
// global adjacency is touched: U_bit = L*, V_bit = live candidates plus the
// live excluded set, and each mask is the vertex's local neighborhood
// re-encoded as bits.
func (e *engine) buildBitCGFromLN(L []int32, candIDs []int32, candNbrs [][]int32, exclIDs []int32, exclNbrs [][]int32) *bitCG {
	epoch := e.stampEpoch()
	for pos, u := range L {
		e.uMark[u] = epoch
		e.uVal[u] = int32(pos)
	}
	width := e.maskWidth(len(L))
	nLive := len(exclIDs)
	for _, vc := range candIDs {
		if vc >= 0 {
			nLive++
		}
	}
	cg := &e.cg
	cg.reset(width, L, nLive)
	k := 0
	fill := func(id int32, nbrs []int32) {
		m := cg.mask(int32(k))
		for _, u := range nbrs {
			m.Set(int(e.uVal[u]))
		}
		cg.vids = append(cg.vids, id)
		k++
	}
	for j, vc := range candIDs {
		if vc >= 0 {
			fill(vc, candNbrs[j])
		}
	}
	cg.nCand = k
	for j, x := range exclIDs {
		fill(x, exclNbrs[j])
	}
	return cg
}

// buildBitCGGlobal materializes the bitmap CG from the original adjacency
// lists (the AdaMBE-BIT variant, which has no local-neighborhood cache):
// V_bit = ⋃_{u∈L*} N(u) − R* (§III-B), with the creation node's candidates
// registered first so candidate order is preserved, and every other member
// of V_bit forming the excluded set.
func (e *engine) buildBitCGGlobal(L, R, cand []int32) *bitCG {
	epoch := e.stampEpoch()
	for pos, u := range L {
		e.uMark[u] = epoch
		e.uVal[u] = int32(pos)
	}
	for _, v := range R {
		e.vMark[v] = epoch
		e.vVal[v] = -1 // R members are excluded from V_bit
	}
	width := e.maskWidth(len(L))
	cg := &e.cg
	cg.reset(width, L, len(cand))
	cg.nCand = len(cand)
	for k, v := range cand {
		e.vMark[v] = epoch
		e.vVal[v] = int32(k)
		cg.vids = append(cg.vids, v)
	}
	for pos, u := range L {
		for _, v := range e.g.NeighborsOfU(u) {
			if e.vMark[v] != epoch {
				e.vMark[v] = epoch
				e.vVal[v] = int32(len(cg.vids))
				cg.vids = append(cg.vids, v)
				cg.growMask()
			}
			k := e.vVal[v]
			if k < 0 {
				continue // member of R*
			}
			cg.masks[int(k)*width+(pos>>6)] |= 1 << (uint(pos) & 63)
		}
	}
	return cg
}

// searchBitRoot seeds the bitwise procedure over a freshly built bitmap CG:
// L = all of L*, candidates and excluded vertices as laid out by the
// builder. The overwhelmingly common case — τ ≤ 64, every mask one machine
// word — dispatches to the scalar specialization searchBit1, realizing the
// paper's "each set intersection is a single bitwise AND between two
// 64-bit integers". Wider masks (τ up to 64·bitset.SmallStrideMax on the
// unrolled kernels, beyond that on a generic word loop) run searchBitPacked
// over the CG's packed mask storage.
func (e *engine) searchBitRoot(cg *bitCG, R []int32) {
	mark := e.ids.Mark()
	cand := e.ids.Alloc(cg.nCand)
	for i := range cand {
		cand[i] = int32(i)
	}
	excl := e.ids.Alloc(len(cg.vids) - cg.nCand)
	for i := range excl {
		excl[i] = int32(cg.nCand + i)
	}
	t0, timed := e.enterSmallTimer(len(cg.lids))
	if cg.width == 1 {
		var root uint64
		if n := len(cg.lids); n >= 64 {
			root = ^uint64(0)
		} else {
			root = (1 << uint(n)) - 1
		}
		e.searchBit1(cg, root, R, cand, excl)
	} else {
		if cap(cg.rootBuf) < cg.width {
			cg.charged(cap(cg.rootBuf), cg.width)
			cg.rootBuf = make([]uint64, cg.width)
		}
		root := bitset.Mask(cg.rootBuf[:cg.width])
		root.FillLow(len(cg.lids))
		e.searchBitPacked(cg, 0, root, R, cand, excl)
	}
	e.exitSmallTimer(t0, timed)
	e.ids.Release(mark)
}

// searchBit1 is searchBit specialized to one-word masks: every mask is a
// plain uint64 indexed directly in cg.masks, set intersection is a single
// AND, the subset test a single AND+CMP, and L_q lives in a register.
//
// Under AdaMBE both bitwise procedures apply LN's rule 3 (§III-A(3)) from
// every child that passes SkipChild, maximal or not: a later candidate w
// with N_p(w) ⊆ L_q, i.e. no bit of lp & m(w) outside lq, leaves cand.
// cand belongs to this node (searchBitRoot's allocation or the parent's
// C_q, which the parent never reads after the recursion), so it is
// compacted in place; only entries after i move, and the traversed prefix
// cand[:i] is unchanged. AdaMBE-BIT, the paper's BIT-only ablation, keeps
// every candidate.
func (e *engine) searchBit1(cg *bitCG, lp uint64, R []int32, cand, excl []int32) {
	if e.stop.Stopped() {
		return
	}
	masks := cg.masks
	prune := e.variant == Ada
	for i := 0; i < len(cand); i++ {
		if e.stop.Hit() {
			return
		}
		lq := lp & masks[cand[i]]
		if e.collect {
			e.metrics.SetIntersections++
		}
		if e.skipChild != nil && e.skipChild(bits.OnesCount64(lq)) {
			continue
		}

		// Node check against the excluded set and the traversed prefix.
		maximal := true
		for _, xk := range excl {
			if e.collect {
				e.metrics.SetIntersections++
			}
			if lq&^masks[xk] == 0 { // lq ⊆ mask(xk)
				maximal = false
				break
			}
		}
		if maximal {
			for _, xk := range cand[:i] {
				if e.collect {
					e.metrics.SetIntersections++
				}
				if lq&^masks[xk] == 0 {
					maximal = false
					break
				}
			}
		}
		e.ctr.NodesBit++
		outside := lp &^ lq // rule 3 keeps w iff m(w) meets it
		kept := i + 1
		if !maximal {
			if prune {
				for _, wk := range cand[i+1:] {
					if masks[wk]&outside != 0 {
						cand[kept] = wk
						kept++
					}
				}
				if e.collect {
					e.metrics.SetIntersections += int64(len(cand) - i - 1)
				}
				cand = e.keepCandidates(cand, kept)
			}
			continue
		}

		// Node generation: classify the whole suffix first, since a
		// candidate rule 3 drops still joins R_q or C_q.
		mark := e.ids.Mark()
		rem := len(cand) - i - 1
		rq := e.ids.Alloc(len(R) + 1 + rem)
		nr := copy(rq, R)
		rq[nr] = cg.vids[cand[i]]
		nr++
		cq := e.ids.Alloc(rem)
		nc := 0
		for _, wk := range cand[i+1:] {
			mw := masks[wk]
			if e.collect {
				e.metrics.SetIntersections++
			}
			switch and := lq & mw; {
			case and == lq: // lq ⊆ mw
				rq[nr] = cg.vids[wk]
				nr++
			case and != 0:
				cq[nc] = wk
				nc++
			}
			if !prune || mw&outside != 0 {
				cand[kept] = wk
				kept++
			}
		}
		cand = e.keepCandidates(cand, kept)
		exq := e.ids.Alloc(len(excl) + i)
		nx := 0
		for _, xk := range excl {
			if lq&masks[xk] != 0 {
				exq[nx] = xk
				nx++
			}
		}
		for _, xk := range cand[:i] {
			if lq&masks[xk] != 0 {
				exq[nx] = xk
				nx++
			}
		}

		if e.collect {
			e.metrics.observeNode(bits.OnesCount64(lq), nc)
		}
		e.emitBit1(cg, lq, rq[:nr])
		if nc > 0 && (e.skipSubtree == nil || !e.skipSubtree(bits.OnesCount64(lq), nr, nc)) {
			e.searchBit1(cg, lq, rq[:nr], cq[:nc], exq[:nx])
		}
		e.ids.Release(mark)
	}
}

// emitBit1 is emitBit for one-word L masks.
func (e *engine) emitBit1(cg *bitCG, lq uint64, R []int32) {
	if e.handler == nil && e.sink == nil {
		e.ctr.Bicliques++
		return
	}
	mark := e.ids.Mark()
	L := e.ids.Alloc(bits.OnesCount64(lq))
	n := 0
	for w := lq; w != 0; w &= w - 1 {
		L[n] = cg.lids[bits.TrailingZeros64(w)]
		n++
	}
	e.emit(L, R)
	e.ids.Release(mark)
}

// searchBitPacked is the bitwise enumeration procedure (Algorithm 2, lines
// 24-40) for multi-word masks. All vertex sets except R hold CG-local
// indices; every set intersection is a width-word AND. The maximality test
// on line 29 is implemented as the subset check (L_q & N_bit(v”)) == L_q.
//
// Unlike the per-vertex original, each phase of a node runs as ONE batched
// kernel call over the packed mask storage (internal/bitset kernels):
// FirstSupersetPacked sweeps the excluded set for the maximality check,
// ClassifyPacked splits the whole remaining candidate block into R_q / C_q
// in a single pass (replacing the separate subset test and overlap test per
// candidate), FilterIntersectsPacked builds the child excluded set, and
// under AdaMBE DropCoveredPacked applies rule 3 (see searchBit1) once per
// child. Each call hoists L_q's words into registers once per block and
// dispatches once on the stride, so τ ∈ (64, 256] stays on unrolled
// 2–4-word inner loops instead of falling back to LN.
func (e *engine) searchBitPacked(cg *bitCG, depth int, lp bitset.Mask, R []int32, cand, excl []int32) {
	if e.stop.Stopped() {
		return
	}
	width := cg.width
	masks := cg.masks
	prune := e.variant == Ada
	for i := 0; i < len(cand); i++ {
		if e.stop.Hit() {
			return
		}
		vk := cand[i]
		lq := cg.frame(depth)
		bitset.AndPacked(lq, lp, masks, width, vk)
		if e.collect {
			e.metrics.SetIntersections++
		}
		if e.skipChild != nil && e.skipChild(lq.Count()) {
			continue
		}

		// Node check (lines 27-30): the excluded set is every V_bit vertex
		// outside R ∪ C — the builder's excluded list plus candidates
		// already traversed at this node or an ancestor within the bitmap.
		// SetIntersections counts one op per mask actually inspected, like
		// the early-exiting per-vertex loop it replaces.
		inspected := len(excl)
		at := bitset.FirstSupersetPacked(lq, masks, width, excl)
		if at >= 0 {
			inspected = at + 1
		} else if at = bitset.FirstSupersetPacked(lq, masks, width, cand[:i]); at >= 0 {
			inspected += at + 1
		} else {
			inspected += i
		}
		if e.collect {
			e.metrics.SetIntersections += int64(inspected)
		}
		e.ctr.NodesBit++
		if at >= 0 { // lq ⊆ an excluded or traversed mask: not maximal
			if prune {
				if e.collect {
					e.metrics.SetIntersections += int64(len(cand) - i - 1)
				}
				cand = e.dropCovered(cg, lp, lq, cand, i)
			}
			continue
		}

		// Node generation (lines 31-37): classify the remaining candidate
		// block in one batched pass, then split by relation.
		mark := e.ids.Mark()
		rem := len(cand) - i - 1
		rq := e.ids.Alloc(len(R) + 1 + rem)
		nr := copy(rq, R)
		rq[nr] = cg.vids[vk]
		nr++
		cq := e.ids.Alloc(rem)
		nc := 0
		rels := e.relScratch(rem)
		bitset.ClassifyPacked(lq, masks, width, cand[i+1:], rels)
		if e.collect {
			e.metrics.SetIntersections += int64(rem)
		}
		for j, rel := range rels {
			switch rel {
			case bitset.RelSubset:
				rq[nr] = cg.vids[cand[i+1+j]]
				nr++
			case bitset.RelOverlap:
				cq[nc] = cand[i+1+j]
				nc++
			}
		}
		if prune {
			cand = e.dropCovered(cg, lp, lq, cand, i)
		}
		// Child excluded set: previous exclusions plus this node's
		// traversed prefix, filtered to those still overlapping L_q.
		exq := e.ids.Alloc(len(excl) + i)
		nx := bitset.FilterIntersectsPacked(lq, masks, width, excl, exq)
		nx += bitset.FilterIntersectsPacked(lq, masks, width, cand[:i], exq[nx:])

		if e.collect {
			e.metrics.observeNode(lq.Count(), nc)
		}
		e.emitBit(cg, lq, rq[:nr])
		if nc > 0 && (e.skipSubtree == nil || !e.skipSubtree(lq.Count(), nr, nc)) {
			e.searchBitPacked(cg, depth+1, lq, rq[:nr], cq[:nc], exq[:nx])
		}
		e.ids.Release(mark)
	}
}

// dropCovered is rule 3 in searchBitPacked, after node lp's child lq:
// one batched pass compacts cand[i+1:] to the candidates lq does not
// cover at lp (see searchBit1).
func (e *engine) dropCovered(cg *bitCG, lp, lq bitset.Mask, cand []int32, i int) []int32 {
	n := bitset.DropCoveredPacked(lp, lq, cg.masks, cg.width, cand[i+1:])
	return e.keepCandidates(cand, i+1+n)
}

// keepCandidates cuts a node's candidate list to its first kept entries
// after a rule-3 compaction and counts the dropped ones as pruned nodes.
func (e *engine) keepCandidates(cand []int32, kept int) []int32 {
	if e.collect {
		e.metrics.NodesPruned += int64(len(cand) - kept)
	}
	return cand[:kept]
}

// relScratch returns a classification buffer of length n. One buffer per
// engine suffices: it is consumed into R_q/C_q before any recursion, so no
// live rels survive a nested searchBitPacked call.
func (e *engine) relScratch(n int) []bitset.Rel {
	if cap(e.rels) < n {
		before := cap(e.rels)
		e.rels = make([]bitset.Rel, max(n, 2*cap(e.rels)))
		e.chargeMem(int64(cap(e.rels) - before))
	}
	return e.rels[:n]
}

// emitBit reports a maximal biclique found in bitmap mode, materializing
// the L side only when a handler is attached.
func (e *engine) emitBit(cg *bitCG, lq bitset.Mask, R []int32) {
	if e.handler == nil && e.sink == nil {
		e.ctr.Bicliques++
		return
	}
	mark := e.ids.Mark()
	L := e.ids.Alloc(lq.Count())
	n := 0
	lq.ForEach(func(bit int) {
		L[n] = cg.lids[bit]
		n++
	})
	e.emit(L, R)
	e.ids.Release(mark)
}
