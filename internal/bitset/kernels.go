package bitset

// Batched mask kernels over packed mask storage.
//
// A bitmap CG stores its masks packed in one []uint64 (stride words per
// mask, see internal/core's bitCG). The enumeration hot loops never need a
// single mask in isolation — they need one query mask L_q compared against
// a *block* of candidate masks: classify every remaining candidate
// (disjoint / overlapping / superset), find the first excluded vertex that
// violates maximality, filter the excluded set down to the vertices still
// overlapping L_q, drop the later candidates L_q covers at the parent. The
// kernels below take the packed storage and a block of CG-local indices
// and answer those questions in a single pass each, GMBE-style: L_q's
// words are hoisted into registers once per call and reused across the
// whole block, instead of being re-read (and its slice header
// re-materialized) once per candidate as the Mask methods would.
//
// Every kernel is unswitched on the stride: widths 2, 3 and 4 words
// (64 < |L*| ≤ 256; the default τ = 128 reaches width 2) get dedicated
// inner loops whose word operations are fully unrolled, other widths fall
// back to a generic loop. One-word masks never get here in an
// enumeration: internal/core searches them with its scalar
// specialization (searchBit1). The dispatch happens once per call — once
// per candidate *block* — not once per candidate.

// SmallStrideMax is the widest mask stride (in 64-bit words) with a
// dedicated unrolled kernel; τ up to 64*SmallStrideMax stays on it.
const SmallStrideMax = 4

// Rel classifies the relation of one candidate mask m to the query mask
// L_q (always from L_q's point of view).
type Rel uint8

const (
	// RelDisjoint: L_q ∩ m = ∅ — the candidate leaves the subtree.
	RelDisjoint Rel = iota
	// RelOverlap: ∅ ⊂ L_q ∩ m ⊂ L_q — the candidate stays a candidate.
	RelOverlap
	// RelSubset: L_q ⊆ m — the candidate joins R_q.
	RelSubset
)

// AndPacked stores lq AND packed-mask k into dst. len(lq) == stride; dst
// may alias lq.
func AndPacked(dst, lq, packed []uint64, stride int, k int32) {
	off := int(k) * stride
	m := packed[off : off+stride]
	switch stride {
	case 2:
		dst[0] = lq[0] & m[0]
		dst[1] = lq[1] & m[1]
	case 3:
		dst[0] = lq[0] & m[0]
		dst[1] = lq[1] & m[1]
		dst[2] = lq[2] & m[2]
	case 4:
		dst[0] = lq[0] & m[0]
		dst[1] = lq[1] & m[1]
		dst[2] = lq[2] & m[2]
		dst[3] = lq[3] & m[3]
	default:
		for w := range m {
			dst[w] = lq[w] & m[w]
		}
	}
}

// ClassifyPacked classifies every packed mask named by ks against lq in
// one batched pass, writing out[i] for ks[i]. len(out) >= len(ks);
// len(lq) == stride. This is the node-generation kernel: one call splits a
// node's whole remaining candidate block into R_q / C_q / gone.
func ClassifyPacked(lq, packed []uint64, stride int, ks []int32, out []Rel) {
	switch stride {
	case 2:
		classify2(lq[0], lq[1], packed, ks, out)
	case 3:
		classify3(lq[0], lq[1], lq[2], packed, ks, out)
	case 4:
		classify4(lq[0], lq[1], lq[2], lq[3], packed, ks, out)
	default:
		classifyGeneric(lq, packed, stride, ks, out)
	}
}

func rel3(subset bool, any uint64) Rel {
	if subset {
		return RelSubset
	}
	if any != 0 {
		return RelOverlap
	}
	return RelDisjoint
}

func classify2(l0, l1 uint64, packed []uint64, ks []int32, out []Rel) {
	_ = out[:len(ks)]
	for i, k := range ks {
		off := int(k) * 2
		m := packed[off : off+2]
		a0, a1 := l0&m[0], l1&m[1]
		out[i] = rel3(a0 == l0 && a1 == l1, a0|a1)
	}
}

func classify3(l0, l1, l2 uint64, packed []uint64, ks []int32, out []Rel) {
	_ = out[:len(ks)]
	for i, k := range ks {
		off := int(k) * 3
		m := packed[off : off+3]
		a0, a1, a2 := l0&m[0], l1&m[1], l2&m[2]
		out[i] = rel3(a0 == l0 && a1 == l1 && a2 == l2, a0|a1|a2)
	}
}

func classify4(l0, l1, l2, l3 uint64, packed []uint64, ks []int32, out []Rel) {
	_ = out[:len(ks)]
	for i, k := range ks {
		off := int(k) * 4
		m := packed[off : off+4]
		a0, a1 := l0&m[0], l1&m[1]
		a2, a3 := l2&m[2], l3&m[3]
		out[i] = rel3(a0 == l0 && a1 == l1 && a2 == l2 && a3 == l3, a0|a1|a2|a3)
	}
}

func classifyGeneric(lq, packed []uint64, stride int, ks []int32, out []Rel) {
	_ = out[:len(ks)]
	for i, k := range ks {
		off := int(k) * stride
		m := packed[off : off+stride]
		var any, diff uint64
		for w := range m {
			any |= lq[w] & m[w]
			diff |= lq[w] &^ m[w]
		}
		out[i] = rel3(diff == 0, any)
	}
}

// FirstSupersetPacked returns the index i of the first ks[i] whose packed
// mask is a superset of lq (lq ⊆ mask, the maximality violation), or -1.
// Early exit at the first hit, like the per-vertex check it replaces.
func FirstSupersetPacked(lq, packed []uint64, stride int, ks []int32) int {
	switch stride {
	case 2:
		l0, l1 := lq[0], lq[1]
		for i, k := range ks {
			off := int(k) * 2
			m := packed[off : off+2]
			if l0&^m[0]|l1&^m[1] == 0 {
				return i
			}
		}
	case 3:
		l0, l1, l2 := lq[0], lq[1], lq[2]
		for i, k := range ks {
			off := int(k) * 3
			m := packed[off : off+3]
			if l0&^m[0]|l1&^m[1]|l2&^m[2] == 0 {
				return i
			}
		}
	case 4:
		l0, l1, l2, l3 := lq[0], lq[1], lq[2], lq[3]
		for i, k := range ks {
			off := int(k) * 4
			m := packed[off : off+4]
			if l0&^m[0]|l1&^m[1]|l2&^m[2]|l3&^m[3] == 0 {
				return i
			}
		}
	default:
		for i, k := range ks {
			off := int(k) * stride
			m := packed[off : off+stride]
			var diff uint64
			for w := range m {
				diff |= lq[w] &^ m[w]
			}
			if diff == 0 {
				return i
			}
		}
	}
	return -1
}

// FilterIntersectsPacked writes into dst every k ∈ ks whose packed mask
// overlaps lq, preserving order, and returns the count. len(dst) >=
// len(ks). This builds a child's excluded set in one pass.
func FilterIntersectsPacked(lq, packed []uint64, stride int, ks []int32, dst []int32) int {
	n := 0
	switch stride {
	case 2:
		l0, l1 := lq[0], lq[1]
		for _, k := range ks {
			off := int(k) * 2
			m := packed[off : off+2]
			if l0&m[0]|l1&m[1] != 0 {
				dst[n] = k
				n++
			}
		}
	case 3:
		l0, l1, l2 := lq[0], lq[1], lq[2]
		for _, k := range ks {
			off := int(k) * 3
			m := packed[off : off+3]
			if l0&m[0]|l1&m[1]|l2&m[2] != 0 {
				dst[n] = k
				n++
			}
		}
	case 4:
		l0, l1, l2, l3 := lq[0], lq[1], lq[2], lq[3]
		for _, k := range ks {
			off := int(k) * 4
			m := packed[off : off+4]
			if l0&m[0]|l1&m[1]|l2&m[2]|l3&m[3] != 0 {
				dst[n] = k
				n++
			}
		}
	default:
		for _, k := range ks {
			off := int(k) * stride
			m := packed[off : off+stride]
			var any uint64
			for w := range m {
				any |= lq[w] & m[w]
			}
			if any != 0 {
				dst[n] = k
				n++
			}
		}
	}
	return n
}

// DropCoveredPacked compacts ks in place: it keeps, in order, every k whose
// packed mask has a bit of lp outside lq (lp & mask ⊄ lq), and returns the
// number kept. len(lp) == len(lq) == stride. With lq a child's L_q and lp
// its parent's L_p, the dropped k are the candidates whose local
// neighborhood at the parent lies inside L_q: LN's pruning rule (§III-A(3)).
func DropCoveredPacked(lp, lq, packed []uint64, stride int, ks []int32) int {
	n := 0
	switch stride {
	case 2:
		d0, d1 := lp[0]&^lq[0], lp[1]&^lq[1]
		for _, k := range ks {
			off := int(k) * 2
			m := packed[off : off+2]
			if d0&m[0]|d1&m[1] != 0 {
				ks[n] = k
				n++
			}
		}
	case 3:
		d0, d1, d2 := lp[0]&^lq[0], lp[1]&^lq[1], lp[2]&^lq[2]
		for _, k := range ks {
			off := int(k) * 3
			m := packed[off : off+3]
			if d0&m[0]|d1&m[1]|d2&m[2] != 0 {
				ks[n] = k
				n++
			}
		}
	case 4:
		d0, d1, d2, d3 := lp[0]&^lq[0], lp[1]&^lq[1], lp[2]&^lq[2], lp[3]&^lq[3]
		for _, k := range ks {
			off := int(k) * 4
			m := packed[off : off+4]
			if d0&m[0]|d1&m[1]|d2&m[2]|d3&m[3] != 0 {
				ks[n] = k
				n++
			}
		}
	default:
		for _, k := range ks {
			off := int(k) * stride
			m := packed[off : off+stride]
			var out uint64
			for w := range m {
				out |= lp[w] &^ lq[w] & m[w]
			}
			if out != 0 {
				ks[n] = k
				n++
			}
		}
	}
	return n
}
