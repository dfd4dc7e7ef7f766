package finder

import (
	"fmt"
	"math"
	"math/big"
	"time"

	"repro/internal/graph"
	"repro/internal/tle"
	"repro/internal/vset"
)

// CountPQBicliques counts every (p,q)-biclique of g: complete bipartite
// subgraphs with exactly p U-side and q V-side vertices, maximal or not —
// the counting problem of Yang et al. (PVLDB'21), which the paper's §V
// lists among the neighborhoods AdaMBE's techniques transfer to. The
// count is exact.
//
// Method: depth-first enumeration of q-subsets of V in ascending id order,
// carrying the running common neighborhood Γ (local neighborhoods shrink
// down the tree exactly like AdaMBE's computational subgraphs); each
// completed q-subset contributes C(|Γ|, p). Subtrees with |Γ| < p are
// pruned. Complexity is output-sensitive in the number of q-subsets with
// ≥ p common neighbors; intended for small q (≤ ~5) as in the cited work.
//
// The result saturates at math.MaxInt64 on overflow. A zero deadline
// disables the time limit; on expiry the partial count and timedOut=true
// return.
func CountPQBicliques(g *graph.Bipartite, p, q int, deadline time.Time) (count int64, timedOut bool, err error) {
	if p < 1 || q < 1 {
		return 0, false, fmt.Errorf("finder: p and q must be ≥ 1 (got p=%d q=%d)", p, q)
	}
	e := &pqCounter{g: g, p: p, q: q, stop: tle.NewStopper(nil, tle.Config{Deadline: deadline})}
	nv := int32(g.NV())
	for v := int32(0); v < nv; v++ {
		if e.timedOut {
			break
		}
		nb := g.NeighborsOfV(v)
		if len(nb) < p {
			continue
		}
		e.rec(v+1, 1, nb)
	}
	return e.count, e.timedOut, nil
}

type pqCounter struct {
	g        *graph.Bipartite
	p, q     int
	stop     tle.Stopper
	count    int64
	timedOut bool
	ids      vset.Slab[int32]
}

func (e *pqCounter) rec(start int32, depth int, common []int32) {
	if depth == e.q {
		e.add(binomial(len(common), e.p))
		return
	}
	if e.stop.Hit() {
		e.timedOut = true
		return
	}
	nv := int32(e.g.NV())
	for v := start; v < nv; v++ {
		if e.timedOut {
			return
		}
		nb := e.g.NeighborsOfV(v)
		if len(nb) < e.p {
			continue
		}
		mark := e.ids.Mark()
		buf := e.ids.Alloc(min(len(common), len(nb)))
		m := vset.IntersectInto(buf, common, nb)
		if m >= e.p {
			e.rec(v+1, depth+1, buf[:m])
		}
		e.ids.Release(mark)
	}
}

func (e *pqCounter) add(n int64) {
	if n < 0 || e.count > math.MaxInt64-n {
		e.count = math.MaxInt64
		return
	}
	e.count += n
}

// binomial returns C(n, k), saturating at MaxInt64. Exact up to the
// saturation point (computed in big integers, so intermediate products
// cannot overflow early).
func binomial(n, k int) int64 {
	if k < 0 || k > n {
		return 0
	}
	if k > n-k {
		k = n - k
	}
	result := new(big.Int).Binomial(int64(n), int64(k))
	if !result.IsInt64() {
		return math.MaxInt64
	}
	return result.Int64()
}
