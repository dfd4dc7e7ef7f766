// Package graph implements the bipartite-graph substrate for maximal
// biclique enumeration: a compact CSR (compressed sparse row)
// adjacency-list representation for both vertex sides, loaders for the
// KONECT edge-list format used by the paper's datasets, a binary cache
// format, and basic statistics.
//
// Conventions follow the paper: the graph is G(U, V, E); enumeration
// candidates are drawn from V and biclique L-sets from U, and by default
// the side with fewer vertices is designated V (§IV-A). Vertices on each
// side are dense int32 ids in [0, NU) and [0, NV).
package graph

import (
	"fmt"
	"sort"
)

// Bipartite is an immutable bipartite graph with CSR adjacency for both
// sides. Neighbor lists are sorted ascending and duplicate-free, which the
// enumeration kernels rely on for merge intersections.
type Bipartite struct {
	nu, nv int

	// V-side CSR: neighbors (in U) of each v.
	vOff []int64
	vAdj []int32

	// U-side CSR: neighbors (in V) of each u.
	uOff []int64
	uAdj []int32

	// meta is generation provenance, if any (see Meta).
	meta Meta
}

// Meta records the provenance of a generated graph: which generator built
// it, from which seed, with which parameters. It exists so that any graph
// a test fails on can be rebuilt byte-for-byte from three fields (see
// gen.FromMeta). Loaded graphs carry the zero Meta.
type Meta struct {
	// Generator is the gen constructor name ("uniform", "powerlaw",
	// "affiliation", "sample"), or "" for non-generated graphs.
	Generator string
	// Seed is the PRNG seed the generator was called with.
	Seed int64
	// Params is the generator's canonical "key=value ..." parameter string.
	Params string
}

// Meta returns the graph's provenance metadata (zero for loaded graphs).
func (g *Bipartite) Meta() Meta { return g.meta }

// WithMeta returns a copy of g (sharing CSR storage) carrying m as its
// provenance metadata.
func (g *Bipartite) WithMeta(m Meta) *Bipartite {
	ng := *g
	ng.meta = m
	return &ng
}

// Edge is a single (u, v) edge with u ∈ U, v ∈ V.
type Edge struct {
	U, V int32
}

// NU returns |U|.
func (g *Bipartite) NU() int { return g.nu }

// NV returns |V|.
func (g *Bipartite) NV() int { return g.nv }

// NumEdges returns |E|.
func (g *Bipartite) NumEdges() int64 { return int64(len(g.vAdj)) }

// NeighborsOfV returns the sorted U-side neighbor list of v. The returned
// slice aliases internal storage and must not be modified.
func (g *Bipartite) NeighborsOfV(v int32) []int32 {
	return g.vAdj[g.vOff[v]:g.vOff[v+1]]
}

// NeighborsOfU returns the sorted V-side neighbor list of u. The returned
// slice aliases internal storage and must not be modified.
func (g *Bipartite) NeighborsOfU(u int32) []int32 {
	return g.uAdj[g.uOff[u]:g.uOff[u+1]]
}

// DegV returns the degree of v ∈ V.
func (g *Bipartite) DegV(v int32) int { return int(g.vOff[v+1] - g.vOff[v]) }

// DegU returns the degree of u ∈ U.
func (g *Bipartite) DegU(u int32) int { return int(g.uOff[u+1] - g.uOff[u]) }

// HasEdge reports whether (u, v) ∈ E via binary search on the shorter list.
func (g *Bipartite) HasEdge(u, v int32) bool {
	if g.DegU(u) <= g.DegV(v) {
		return contains(g.NeighborsOfU(u), v)
	}
	return contains(g.NeighborsOfV(v), u)
}

func contains(sorted []int32, x int32) bool {
	i := sort.Search(len(sorted), func(i int) bool { return sorted[i] >= x })
	return i < len(sorted) && sorted[i] == x
}

// Edges returns all edges as a fresh slice, ordered by (v, u).
func (g *Bipartite) Edges() []Edge {
	out := make([]Edge, 0, len(g.vAdj))
	for v := int32(0); v < int32(g.nv); v++ {
		for _, u := range g.NeighborsOfV(v) {
			out = append(out, Edge{U: u, V: v})
		}
	}
	return out
}

// Swapped returns a graph with the U and V sides exchanged. Provenance
// metadata is preserved.
func (g *Bipartite) Swapped() *Bipartite {
	return &Bipartite{
		nu: g.nv, nv: g.nu,
		vOff: g.uOff, vAdj: g.uAdj,
		uOff: g.vOff, uAdj: g.vAdj,
		meta: g.meta,
	}
}

// Orient returns the graph with the smaller side designated V, matching the
// dataset convention in §IV-A ("designate the vertex set with fewer vertices
// as V"). It returns the receiver when already oriented.
func (g *Bipartite) Orient() *Bipartite {
	if g.nv <= g.nu {
		return g
	}
	return g.Swapped()
}

// PermuteV returns a copy of g whose V side is relabeled so that new id i
// corresponds to old id perm[i]. Enumeration kernels always process V in
// ascending id order, so applying an ordering permutation here implements
// the paper's vertex-ordering step (Algorithm 2, line 1).
func (g *Bipartite) PermuteV(perm []int32) (*Bipartite, error) {
	if len(perm) != g.nv {
		return nil, fmt.Errorf("graph: permutation length %d != |V| %d", len(perm), g.nv)
	}
	seen := make([]bool, g.nv)
	for _, oldID := range perm {
		if oldID < 0 || int(oldID) >= g.nv {
			return nil, fmt.Errorf("graph: permutation entry %d out of range", oldID)
		}
		if seen[oldID] {
			return nil, fmt.Errorf("graph: permutation repeats id %d", oldID)
		}
		seen[oldID] = true
	}

	ng := &Bipartite{
		nu:   g.nu,
		nv:   g.nv,
		vOff: make([]int64, g.nv+1),
		vAdj: make([]int32, len(g.vAdj)),
		uOff: g.uOff,
		uAdj: make([]int32, len(g.uAdj)),
		meta: g.meta,
	}
	// V-side CSR: rows move wholesale; contents (U ids) are unchanged.
	// U-side CSR: offsets unchanged; each new id is appended to its
	// neighbours' rows in ascending order, so every row comes out sorted
	// with no sort, O(|V| + |E|) in all.
	next := make([]int64, g.nu)
	copy(next, g.uOff)
	for newID := 0; newID < g.nv; newID++ {
		row := g.NeighborsOfV(perm[newID])
		ng.vOff[newID+1] = ng.vOff[newID] + int64(len(row))
		copy(ng.vAdj[ng.vOff[newID]:], row)
		for _, u := range row {
			ng.uAdj[next[u]] = int32(newID)
			next[u]++
		}
	}
	return ng, nil
}

// Validate checks structural invariants (sorted duplicate-free rows, edge
// sets on the two sides mirroring each other) and returns the first
// violation found. Intended for tests and loader verification.
func (g *Bipartite) Validate() error {
	if int64(len(g.vAdj)) != g.vOff[g.nv] || int64(len(g.uAdj)) != g.uOff[g.nu] {
		return fmt.Errorf("graph: CSR offsets inconsistent with storage")
	}
	if len(g.vAdj) != len(g.uAdj) {
		return fmt.Errorf("graph: side edge counts differ: %d vs %d", len(g.vAdj), len(g.uAdj))
	}
	for v := int32(0); v < int32(g.nv); v++ {
		row := g.NeighborsOfV(v)
		for i, u := range row {
			if u < 0 || int(u) >= g.nu {
				return fmt.Errorf("graph: v=%d has out-of-range neighbor %d", v, u)
			}
			if i > 0 && row[i-1] >= u {
				return fmt.Errorf("graph: v=%d row not strictly sorted at %d", v, i)
			}
		}
	}
	for u := int32(0); u < int32(g.nu); u++ {
		row := g.NeighborsOfU(u)
		for i, v := range row {
			if v < 0 || int(v) >= g.nv {
				return fmt.Errorf("graph: u=%d has out-of-range neighbor %d", u, v)
			}
			if i > 0 && row[i-1] >= v {
				return fmt.Errorf("graph: u=%d row not strictly sorted at %d", u, i)
			}
			if !contains(g.NeighborsOfV(v), u) {
				return fmt.Errorf("graph: edge (%d,%d) present on U side only", u, v)
			}
		}
	}
	return nil
}
