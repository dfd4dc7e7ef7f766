package graph

import "fmt"

// FromEdges builds a Bipartite graph from an edge list. Duplicate edges are
// collapsed; nu and nv fix the side sizes (vertices may be isolated). It
// returns an error on out-of-range endpoints.
//
// The build sorts by counting, in O(|U| + |V| + |E|): a stable pass by U
// and then one by V leave the edges in (V, U) order, so every V row comes
// out ascending with its duplicates adjacent, and the U side is the
// transpose of the deduplicated V side.
func FromEdges(nu, nv int, edges []Edge) (*Bipartite, error) {
	if nu < 0 || nv < 0 {
		return nil, fmt.Errorf("graph: negative side size (nu=%d, nv=%d)", nu, nv)
	}
	uOff := make([]int64, nu+1)
	for _, e := range edges {
		if e.U < 0 || int(e.U) >= nu {
			return nil, fmt.Errorf("graph: edge (%d,%d): u out of range [0,%d)", e.U, e.V, nu)
		}
		if e.V < 0 || int(e.V) >= nv {
			return nil, fmt.Errorf("graph: edge (%d,%d): v out of range [0,%d)", e.U, e.V, nv)
		}
		uOff[e.U+1]++
	}
	prefixSum(uOff)

	// Pass 1, by U: byU lists each u's V ids in edge order, u ascending.
	byU := make([]int32, len(edges))
	for _, e := range edges {
		byU[uOff[e.U]] = e.V
		uOff[e.U]++
	}
	toStarts(uOff)

	// Pass 2, by V: the transpose visits u in ascending order.
	vOff, vAdj := transpose(nv, uOff, byU)

	// Drop duplicates row by row, compacting in place.
	w := int64(0)
	for v := 0; v < nv; v++ {
		row := vAdj[vOff[v]:vOff[v+1]]
		vOff[v] = w
		for _, u := range row {
			if w == vOff[v] || vAdj[w-1] != u {
				vAdj[w] = u
				w++
			}
		}
	}
	vOff[nv] = w
	if w < int64(len(vAdj)) { // keep no storage for the dropped duplicates
		vAdj = append(make([]int32, 0, w), vAdj[:w]...)
	}

	g := &Bipartite{nu: nu, nv: nv, vOff: vOff, vAdj: vAdj}
	g.uOff, g.uAdj = transpose(nu, vOff, vAdj)
	return g, nil
}

// transpose builds the CSR of the transpose of the rows off/adj, whose ids
// must lie in [0, n). Every row of the result comes out ascending, because
// the rows of off/adj are visited in ascending order.
func transpose(n int, off []int64, adj []int32) (tOff []int64, tAdj []int32) {
	tOff = make([]int64, n+1)
	for _, x := range adj {
		tOff[x+1]++
	}
	prefixSum(tOff)
	tAdj = make([]int32, len(adj))
	for r := 0; r+1 < len(off); r++ {
		for _, x := range adj[off[r]:off[r+1]] {
			tAdj[tOff[x]] = int32(r)
			tOff[x]++
		}
	}
	toStarts(tOff)
	return tOff, tAdj
}

// toStarts turns the row ends a counting scatter leaves in off[0:n] back
// into row starts: the end of row r is the start of row r+1.
func toStarts(off []int64) {
	copy(off[1:], off[:len(off)-1])
	off[0] = 0
}

// prefixSum turns per-slot counts into running totals in place.
func prefixSum(a []int64) {
	for i := 1; i < len(a); i++ {
		a[i] += a[i-1]
	}
}

// FromAdjacency builds a graph from per-v neighbor lists (rows may be
// unsorted and contain duplicates). nu fixes |U|.
func FromAdjacency(nu int, rows [][]int32) (*Bipartite, error) {
	var edges []Edge
	for v, row := range rows {
		for _, u := range row {
			edges = append(edges, Edge{U: u, V: int32(v)})
		}
	}
	return FromEdges(nu, len(rows), edges)
}

// PaperExample returns the 9×4 bipartite graph G0 from Figure 1 of the
// paper (u0..u8 × v0..v3). Its 9 maximal bicliques anchor several unit
// tests (including ({u0,u4,u5,u6},{v0,v2,v3}) from Figure 1).
func PaperExample() *Bipartite {
	// Edges transcribed from Figure 1/2: N(v0)={u0..u2,u4..u7},
	// N(v1)={u0,u1,u2}, N(v2)={u0,u2,u3,u4,u5,u6}, N(v3)={u0,u3,u4,u5,u6,u8}.
	g, err := FromAdjacency(9, [][]int32{
		{0, 1, 2, 4, 5, 6, 7},
		{0, 1, 2},
		{0, 2, 3, 4, 5, 6},
		{0, 3, 4, 5, 6, 8},
	})
	if err != nil {
		// Unreachable: the literal above is in range by inspection. Return
		// an empty-but-valid graph rather than panicking (no enumeration
		// entry point in this module is allowed to panic).
		return &Bipartite{vOff: make([]int64, 1), uOff: make([]int64, 1)}
	}
	return g
}
