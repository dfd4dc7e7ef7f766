// Package finder implements the biclique-optimization problems the paper
// lists as applications of AdaMBE (§V): maximum edge biclique, maximum
// balanced biclique, maximum vertex biclique, personalized maximum
// biclique, and size-bounded maximal biclique enumeration. All of them run
// the AdaMBE engine with branch-and-bound pruning through the core
// SkipChild/SkipSubtree hooks; the incumbent is shared across ParAdaMBE
// workers through an atomic, so pruning tightens as the search proceeds.
package finder

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/graph"
)

// Biclique is a concrete biclique with both sides materialized, ids in the
// input graph's id space.
type Biclique struct {
	L, R []int32
}

// Edges returns |L|·|R|.
func (b Biclique) Edges() int64 { return int64(len(b.L)) * int64(len(b.R)) }

// Balance returns min(|L|, |R|).
func (b Biclique) Balance() int { return min(len(b.L), len(b.R)) }

// Vertices returns |L| + |R|.
func (b Biclique) Vertices() int { return len(b.L) + len(b.R) }

// Options configures a finder search.
type Options struct {
	// Threads > 1 uses ParAdaMBE underneath.
	Threads int
	// Tau is AdaMBE's bitmap threshold; 0 = core.DefaultTau (128).
	Tau int
	// Deadline stops the search early, returning the best incumbent found
	// (Result.TimedOut set).
	Deadline time.Time
}

// Result describes a finder search outcome.
type Result struct {
	// Found reports whether any biclique satisfied the problem (false on
	// edgeless graphs or unsatisfiable size bounds).
	Found bool
	// Best is the optimal (or best-found, if TimedOut) biclique.
	Best Biclique
	// Explored counts maximal bicliques the search actually visited.
	Explored int64
	// TimedOut reports whether the deadline cut the search short.
	TimedOut bool
}

// objective scores a biclique and bounds it from above given node sizes.
type objective struct {
	// score of a concrete biclique (lenL, lenR).
	score func(lenL, lenR int) int64
	// subtreeBound is an upper bound on the score of any biclique in the
	// subtree of a node (lenL, lenR, lenC): L can only shrink, R can only
	// grow up to lenR+lenC.
	subtreeBound func(lenL, lenR, lenC int) int64
	// childBound is an upper bound given only |L'| (and the graph-wide
	// maximum possible |R|, baked in by the caller).
	childBound func(lenL int) int64
}

// MaximumEdgeBiclique finds a biclique maximizing |L|·|R| (the maximum
// edge biclique problem, Lyu et al. PVLDB'20, via AdaMBE per §V).
func MaximumEdgeBiclique(g *graph.Bipartite, opts Options) (Result, error) {
	maxR := int64(maxDegU(g))
	return optimize(g, opts, objective{
		score:        func(l, r int) int64 { return int64(l) * int64(r) },
		subtreeBound: func(l, r, c int) int64 { return int64(l) * int64(r+c) },
		childBound:   func(l int) int64 { return int64(l) * maxR },
	})
}

// MaximumBalancedBiclique finds a biclique maximizing min(|L|, |R|); the
// optimal k×k balanced biclique is any k-subset of each side of the
// returned biclique, k = min(|L|, |R|).
func MaximumBalancedBiclique(g *graph.Bipartite, opts Options) (Result, error) {
	return optimize(g, opts, objective{
		score:        func(l, r int) int64 { return int64(min(l, r)) },
		subtreeBound: func(l, r, c int) int64 { return int64(min(l, r+c)) },
		childBound:   func(l int) int64 { return int64(l) },
	})
}

// MaximumVertexBiclique finds a biclique maximizing |L| + |R|.
func MaximumVertexBiclique(g *graph.Bipartite, opts Options) (Result, error) {
	maxR := int64(maxDegU(g))
	return optimize(g, opts, objective{
		score:        func(l, r int) int64 { return int64(l + r) },
		subtreeBound: func(l, r, c int) int64 { return int64(l + r + c) },
		childBound:   func(l int) int64 { return int64(l) + maxR },
	})
}

// PersonalizedMaximumBiclique finds the maximum edge biclique containing
// the query vertex v ∈ V (Wang et al. ICDE'22's problem, via AdaMBE on the
// query's computational subgraph: U' = N(v), V' = the two-hop neighborhood
// of v — every biclique containing v lives there).
func PersonalizedMaximumBiclique(g *graph.Bipartite, v int32, opts Options) (Result, error) {
	if v < 0 || int(v) >= g.NV() {
		return Result{}, fmt.Errorf("finder: query vertex %d out of range", v)
	}
	uKeep := g.NeighborsOfV(v)
	if len(uKeep) == 0 {
		return Result{}, nil // isolated query: no biclique contains it
	}
	// Two-hop neighborhood of v (including v itself).
	seen := map[int32]bool{}
	var vKeep []int32
	for _, u := range uKeep {
		for _, w := range g.NeighborsOfU(u) {
			if !seen[w] {
				seen[w] = true
				vKeep = append(vKeep, w)
			}
		}
	}
	ind, err := g.Induce(uKeep, vKeep)
	if err != nil {
		return Result{}, err
	}
	// Within the induced graph, v is adjacent to all of U', so v belongs
	// to the R of every maximal biclique there: the personalized maximum
	// equals the induced graph's maximum edge biclique, mapped back.
	res, err := MaximumEdgeBiclique(ind.G, opts)
	if err != nil || !res.Found {
		return res, err
	}
	for i, u := range res.Best.L {
		res.Best.L[i] = ind.UIDs[u]
	}
	for i, w := range res.Best.R {
		res.Best.R[i] = ind.VIDs[w]
	}
	return res, nil
}

// EnumerateSizeBounded reports every maximal biclique with |L| ≥ p and
// |R| ≥ q (the size-constrained enumeration used by (p,q)-biclique
// analyses), pruning subtrees that cannot satisfy the bounds. The handler
// contract matches core.Handler (slices reused; concurrent when
// Threads > 1 — core serializes user callbacks). It returns the number of
// qualifying bicliques.
func EnumerateSizeBounded(g *graph.Bipartite, p, q int, handler core.Handler, opts Options) (int64, core.Result, error) {
	if p < 1 || q < 1 {
		return 0, core.Result{}, fmt.Errorf("finder: size bounds must be ≥ 1 (got p=%d q=%d)", p, q)
	}
	var count atomic.Int64
	res, err := core.Enumerate(g, core.Options{
		Variant:  core.Ada,
		Tau:      opts.Tau,
		Threads:  opts.Threads,
		Deadline: opts.Deadline,
		SkipChild: func(lenL int) bool {
			return lenL < p
		},
		SkipSubtree: func(lenL, lenR, lenC int) bool {
			return lenR+lenC < q
		},
		OnBiclique: func(L, R []int32) {
			if len(L) >= p && len(R) >= q {
				count.Add(1)
				if handler != nil {
					handler(L, R)
				}
			}
		},
	})
	return count.Load(), res, err
}

func optimize(g *graph.Bipartite, opts Options, obj objective) (Result, error) {
	var best atomic.Int64
	var mu sync.Mutex
	var out Result
	res, err := core.Enumerate(g, core.Options{
		Variant:  core.Ada,
		Tau:      opts.Tau,
		Threads:  opts.Threads,
		Deadline: opts.Deadline,
		SkipChild: func(lenL int) bool {
			return obj.childBound(lenL) <= best.Load()
		},
		SkipSubtree: func(lenL, lenR, lenC int) bool {
			return obj.subtreeBound(lenL, lenR, lenC) <= best.Load()
		},
		OnBiclique: func(L, R []int32) {
			s := obj.score(len(L), len(R))
			if s <= best.Load() {
				return
			}
			mu.Lock()
			defer mu.Unlock()
			if s > best.Load() {
				best.Store(s)
				out.Found = true
				out.Best = Biclique{
					L: append(out.Best.L[:0], L...),
					R: append(out.Best.R[:0], R...),
				}
			}
		},
	})
	if err != nil {
		return Result{}, err
	}
	out.Explored = res.Count
	out.TimedOut = res.StopReason == core.StopDeadline
	return out, nil
}

func maxDegU(g *graph.Bipartite) int {
	m := 0
	for u := int32(0); u < int32(g.NU()); u++ {
		if d := g.DegU(u); d > m {
			m = d
		}
	}
	return m
}
