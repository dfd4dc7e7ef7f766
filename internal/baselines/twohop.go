package baselines

import (
	"repro/internal/bitset"
	"repro/internal/graph"
	"repro/internal/vset"
)

// twoHop gathers the distinct two-hop V-neighbors of a root candidate,
// split around its id — the same root optimization the core engines use
// (see core.rootScratch): generating a first-level node by scanning all of
// V costs O(|V|²) intersections across the root loop, while the vertices
// that can actually join the node all live in ⋃_{u∈N(v')} N(u).
// Not safe for concurrent use; each worker owns one.
type twoHop struct {
	g      *graph.Bipartite
	mark   []int32
	epoch  int32
	suffix []int32  // two-hop ids > v' (future candidates), sorted
	prefix []int32  // two-hop ids < v' (already traversed)
	order  []uint64 // vset.SortIDs's bit set, one bit per V vertex
}

// twoHopBytes is the fixed footprint of one twoHop on g, charged by its
// owner: the mark table and the suffix ordering's bit set.
func twoHopBytes(g *graph.Bipartite) int64 {
	return int64(g.NV())*4 + int64(bitset.WordsFor(g.NV()))*8
}

func newTwoHop(g *graph.Bipartite) *twoHop {
	t := &twoHop{g: g, mark: make([]int32, g.NV()), order: make([]uint64, bitset.WordsFor(g.NV()))}
	for i := range t.mark {
		t.mark[i] = -1
	}
	return t
}

func (t *twoHop) gather(vp int32, lq []int32) {
	t.epoch++
	if t.epoch < 0 {
		for i := range t.mark {
			t.mark[i] = -1
		}
		t.epoch = 0
	}
	t.suffix = t.suffix[:0]
	t.prefix = t.prefix[:0]
	for _, u := range lq {
		for _, w := range t.g.NeighborsOfU(u) {
			if w == vp || t.mark[w] == t.epoch {
				continue
			}
			t.mark[w] = t.epoch
			if w > vp {
				t.suffix = append(t.suffix, w)
			} else {
				t.prefix = append(t.prefix, w)
			}
		}
	}
	vset.SortIDs(t.suffix, t.order)
}
