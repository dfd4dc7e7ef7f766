// Package clique implements maximal clique enumeration on general
// (unipartite) graphs — the first of the §V transfer targets the paper
// claims for its hybrid computational-subgraph representation ("our hybrid
// representation can be easily used for various subgraph enumeration
// problems like maximal clique enumeration... their computational
// subgraphs shrink during enumeration").
//
// The algorithm is Bron–Kerbosch with pivoting and a degeneracy-ordered
// root loop, and — exactly as AdaMBE does for bicliques — it adaptively
// re-encodes the shrinking computational subgraph (the P ∪ X candidate
// universe) as one-word-per-vertex bitmaps once it fits τ = 64 bits, so
// the inner loops become single AND operations.
package clique

import (
	"fmt"
	"math/bits"
	"sort"
	"time"

	"repro/internal/tle"
	"repro/internal/vset"
)

// Graph is an immutable undirected simple graph in CSR form. Vertex ids
// are dense in [0, N).
type Graph struct {
	n   int
	off []int64
	adj []int32
}

// Edge is an undirected edge {A, B}.
type Edge struct {
	A, B int32
}

// FromEdges builds a Graph with n vertices from an edge list. Self-loops
// are rejected; duplicate edges (in either orientation) collapse.
func FromEdges(n int, edges []Edge) (*Graph, error) {
	if n < 0 {
		return nil, fmt.Errorf("clique: negative vertex count %d", n)
	}
	type pair struct{ a, b int32 }
	dir := make([]pair, 0, 2*len(edges))
	for _, e := range edges {
		if e.A < 0 || int(e.A) >= n || e.B < 0 || int(e.B) >= n {
			return nil, fmt.Errorf("clique: edge (%d,%d) out of range [0,%d)", e.A, e.B, n)
		}
		if e.A == e.B {
			return nil, fmt.Errorf("clique: self-loop at %d", e.A)
		}
		dir = append(dir, pair{e.A, e.B}, pair{e.B, e.A})
	}
	sort.Slice(dir, func(i, j int) bool {
		if dir[i].a != dir[j].a {
			return dir[i].a < dir[j].a
		}
		return dir[i].b < dir[j].b
	})
	g := &Graph{n: n, off: make([]int64, n+1)}
	g.adj = make([]int32, 0, len(dir))
	for i, p := range dir {
		if i > 0 && p == dir[i-1] {
			continue
		}
		g.adj = append(g.adj, p.b)
		g.off[p.a+1]++
	}
	for i := 0; i < n; i++ {
		g.off[i+1] += g.off[i]
	}
	return g, nil
}

// N returns the number of vertices.
func (g *Graph) N() int { return g.n }

// NumEdges returns the number of undirected edges.
func (g *Graph) NumEdges() int64 { return int64(len(g.adj)) / 2 }

// Neighbors returns v's sorted adjacency; must not be modified.
func (g *Graph) Neighbors(v int32) []int32 { return g.adj[g.off[v]:g.off[v+1]] }

// Deg returns v's degree.
func (g *Graph) Deg(v int32) int { return int(g.off[v+1] - g.off[v]) }

// HasEdge reports whether {a, b} is an edge.
func (g *Graph) HasEdge(a, b int32) bool {
	row := g.Neighbors(a)
	i := sort.Search(len(row), func(i int) bool { return row[i] >= b })
	return i < len(row) && row[i] == b
}

// Handler receives each maximal clique (sorted ascending). The slice is
// reused; copy to retain.
type Handler func(clique []int32)

// Options configures Enumerate.
type Options struct {
	// Tau is the bitmap threshold on |P ∪ X|; 0 = 64.
	Tau int
	// OnClique receives every maximal clique, if non-nil.
	OnClique Handler
	// Deadline stops enumeration early (Result.TimedOut reports it).
	Deadline time.Time
}

// Result summarizes an enumeration.
type Result struct {
	Count    int64
	TimedOut bool
}

// Enumerate reports every maximal clique of g (isolated vertices are
// maximal cliques of size 1).
func Enumerate(g *Graph, opts Options) (Result, error) {
	tau := opts.Tau
	if tau == 0 {
		tau = 64
	}
	if tau < 0 || tau > 64 {
		return Result{}, fmt.Errorf("clique: tau %d out of range (0, 64]", tau)
	}
	e := &engine{g: g, tau: tau, handler: opts.OnClique, stop: tle.NewStopper(nil, tle.Config{Deadline: opts.Deadline})}
	e.run()
	return Result{Count: e.count, TimedOut: e.timedOut}, nil
}

type engine struct {
	g        *Graph
	tau      int
	handler  Handler
	stop     tle.Stopper
	count    int64
	timedOut bool

	ids  vset.Slab[int32]
	hdrs vset.Slab[[]int32]
	r    []int32 // current clique (shared stack)
}

// run performs the degeneracy-ordered root loop: vertices in degeneracy
// order; each root call has P = later neighbors, X = earlier neighbors —
// the standard linear-degeneracy decomposition of Eppstein et al.
func (e *engine) run() {
	n := e.g.n
	if n == 0 {
		return
	}
	orderPos, order := degeneracyOrder(e.g)
	for _, v := range order {
		if e.timedOut {
			return
		}
		if e.stop.Hit() {
			e.timedOut = true
			return
		}
		mark := e.ids.Mark()
		hmark := e.hdrs.Mark()
		nb := e.g.Neighbors(v)
		p := e.ids.Alloc(len(nb))
		x := e.ids.Alloc(len(nb))
		np, nx := 0, 0
		for _, w := range nb {
			if orderPos[w] > orderPos[v] {
				p[np] = w
				np++
			} else {
				x[nx] = w
				nx++
			}
		}
		e.r = append(e.r[:0], v)
		// Local neighborhoods within this root subproblem, the biclique
		// engine's CG trick transplanted: every deeper intersection uses
		// these cached rows, never the global adjacency.
		e.bk(p[:np], x[:nx])
		e.ids.Release(mark)
		e.hdrs.Release(hmark)
	}
}

// bk is Bron–Kerbosch with pivoting on the current clique e.r, candidates
// P and excluded X (both sorted). It switches to the bitmap kernel when
// the computational subgraph fits τ bits.
func (e *engine) bk(p, x []int32) {
	if e.timedOut {
		return
	}
	if len(p) == 0 {
		if len(x) == 0 {
			e.emit()
		}
		return
	}
	if len(p)+len(x) <= e.tau {
		e.bkBit(p, x)
		return
	}
	if e.stop.Hit() {
		e.timedOut = true
		return
	}

	// Pivot: u ∈ P ∪ X maximizing |N(u) ∩ P|; iterate P \ N(u).
	pivot := p[0]
	best := -1
	for _, cand := range [2][]int32{p, x} {
		for _, u := range cand {
			if m := vset.IntersectLen(p, e.g.Neighbors(u)); m > best {
				best = m
				pivot = u
			}
		}
	}
	mark := e.ids.Mark()
	iter := e.ids.Alloc(len(p))
	nIter := 0
	pnb := e.g.Neighbors(pivot)
	j := 0
	for _, v := range p {
		for j < len(pnb) && pnb[j] < v {
			j++
		}
		if j < len(pnb) && pnb[j] == v {
			continue // covered by the pivot
		}
		iter[nIter] = v
		nIter++
	}

	// Mutable copies of P/X that shrink/grow across iterations.
	curP := e.ids.Alloc(len(p))
	copy(curP, p)
	nP := len(p)
	curX := e.ids.Alloc(len(x) + nIter)
	copy(curX, x)
	nX := len(x)

	for k := 0; k < nIter; k++ {
		if e.stop.Hit() {
			e.timedOut = true
			break
		}
		v := iter[k]
		nb := e.g.Neighbors(v)
		sub := e.ids.Mark()
		p2 := e.ids.Alloc(min(nP, len(nb)))
		np2 := vset.IntersectInto(p2, curP[:nP], nb)
		x2 := e.ids.Alloc(min(nX, len(nb)))
		nx2 := vset.IntersectInto(x2, curX[:nX], nb)
		e.r = append(e.r, v)
		e.bk(p2[:np2], x2[:nx2])
		e.r = e.r[:len(e.r)-1]
		e.ids.Release(sub)

		// P ← P \ {v}; X ← X ∪ {v} (keep both sorted).
		nP = removeSorted(curP[:nP], v)
		nX = insertSorted(curX[:nX+1], nX, v)
	}
	e.ids.Release(mark)
}

// bkBit runs Bron–Kerbosch on a bitmap-encoded computational subgraph:
// the ≤τ vertices of P ∪ X become bit positions, each with a one-word
// local adjacency mask — the BIT technique transplanted from AdaMBE.
func (e *engine) bkBit(p, x []int32) {
	n := len(p) + len(x)
	mark := e.ids.Mark()
	univ := e.ids.Alloc(n)
	copy(univ, p)
	copy(univ[len(p):], x)
	// Masks: adj[i] = bitset of universe members adjacent to univ[i].
	// Built by merging each vertex's global row against the sorted
	// universe... universe is not sorted (p then x), so use a position
	// lookup over the at-most-64 entries.
	var masks [64]uint64
	for i := 0; i < n; i++ {
		nb := e.g.Neighbors(univ[i])
		for j := i + 1; j < n; j++ {
			if containsSorted(nb, univ[j]) {
				masks[i] |= 1 << uint(j)
				masks[j] |= 1 << uint(i)
			}
		}
	}
	var pMask, xMask uint64
	if len(p) > 0 {
		pMask = (uint64(1) << uint(len(p))) - 1
	}
	for i := len(p); i < n; i++ {
		xMask |= 1 << uint(i)
	}
	e.bkBitRec(univ, &masks, pMask, xMask)
	e.ids.Release(mark)
}

func (e *engine) bkBitRec(univ []int32, masks *[64]uint64, p, x uint64) {
	if p == 0 {
		if x == 0 {
			e.emit()
		}
		return
	}
	if e.stop.Hit() {
		e.timedOut = true
		return
	}
	// Pivot from P ∪ X maximizing |N ∩ P|.
	pivot := -1
	best := -1
	for w := p | x; w != 0; w &= w - 1 {
		i := bits.TrailingZeros64(w)
		if m := bits.OnesCount64(masks[i] & p); m > best {
			best = m
			pivot = i
		}
	}
	for w := p &^ masks[pivot]; w != 0; w &= w - 1 {
		i := bits.TrailingZeros64(w)
		bit := uint64(1) << uint(i)
		e.r = append(e.r, univ[i])
		e.bkBitRec(univ, masks, p&masks[i], x&masks[i])
		e.r = e.r[:len(e.r)-1]
		p &^= bit
		x |= bit
	}
}

func (e *engine) emit() {
	e.count++
	if e.handler == nil {
		return
	}
	out := e.ids.Alloc(len(e.r))
	copy(out, e.r)
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	e.handler(out)
	e.ids.ShrinkLast(len(out), 0)
}

// degeneracyOrder computes a degeneracy (smallest-last) ordering via
// bucketed peeling; returns position-of-vertex and the order itself.
func degeneracyOrder(g *Graph) (pos []int32, order []int32) {
	n := g.n
	deg := make([]int, n)
	maxDeg := 0
	for v := 0; v < n; v++ {
		deg[v] = g.Deg(int32(v))
		if deg[v] > maxDeg {
			maxDeg = deg[v]
		}
	}
	buckets := make([][]int32, maxDeg+1)
	for v := 0; v < n; v++ {
		buckets[deg[v]] = append(buckets[deg[v]], int32(v))
	}
	pos = make([]int32, n)
	order = make([]int32, 0, n)
	removed := make([]bool, n)
	scan := 0
	for len(order) < n {
		var v int32 = -1
		for d := scan; d <= maxDeg; d++ {
			for len(buckets[d]) > 0 {
				cand := buckets[d][len(buckets[d])-1]
				buckets[d] = buckets[d][:len(buckets[d])-1]
				if !removed[cand] && deg[cand] == d {
					v = cand
					scan = max(d-1, 0)
					break
				}
			}
			if v >= 0 {
				break
			}
		}
		removed[v] = true
		pos[v] = int32(len(order))
		order = append(order, v)
		for _, w := range g.Neighbors(v) {
			if !removed[w] {
				deg[w]--
				buckets[deg[w]] = append(buckets[deg[w]], w)
			}
		}
	}
	return pos, order
}

func removeSorted(s []int32, v int32) int {
	i := sort.Search(len(s), func(i int) bool { return s[i] >= v })
	copy(s[i:], s[i+1:])
	return len(s) - 1
}

// insertSorted inserts v into s[:n] (capacity must allow n+1) keeping
// order; returns n+1.
func insertSorted(s []int32, n int, v int32) int {
	i := sort.Search(n, func(i int) bool { return s[i] >= v })
	copy(s[i+1:n+1], s[i:n])
	s[i] = v
	return n + 1
}

func containsSorted(s []int32, v int32) bool {
	i := sort.Search(len(s), func(i int) bool { return s[i] >= v })
	return i < len(s) && s[i] == v
}
