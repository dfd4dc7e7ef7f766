// Package order implements the V-side vertex orderings evaluated in the
// paper (Fig. 12): ascending degree (AdaMBE's default), random, and the
// unilateral-core order introduced by ooMBEA. An ordering is materialized
// as a permutation and applied with graph.PermuteV, after which the
// enumeration kernels simply process V in ascending id order.
package order

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"

	"repro/internal/graph"
)

// Kind selects a vertex-ordering scheme.
type Kind int

const (
	// DegreeAscending sorts V by degree ascending (AdaMBE-ASC, the paper's
	// default per Algorithm 2 line 1 and Fig. 12).
	DegreeAscending Kind = iota
	// Random shuffles V uniformly (AdaMBE-RAND).
	Random
	// UnilateralCore orders V by ascending unilateral coreness, the order
	// used by ooMBEA (AdaMBE-UC). Computing it requires peeling the
	// one-mode projection of V, which is the "additional overhead" the
	// paper attributes to this scheme.
	UnilateralCore
	// None keeps the input order: Permute applies no permutation.
	None
)

// names is the one table of ordering spellings: the paper's figure
// label, which Kind.String and .repro files use. Its lowercase form is
// the tag that CLI flags, job.json, dist specs and spool.json store.
var names = [...]string{DegreeAscending: "ASC", Random: "RAND", UnilateralCore: "UC", None: "NONE"}

func (k Kind) valid() bool { return k >= 0 && int(k) < len(names) }

// String returns the name used in the paper's figures.
func (k Kind) String() string {
	if !k.valid() {
		return fmt.Sprintf("Kind(%d)", int(k))
	}
	return names[k]
}

// Tag returns the lowercase spelling that flags and on-disk formats use.
func (k Kind) Tag() string { return strings.ToLower(k.String()) }

// Tags lists every ordering's tag in Kind order.
func Tags() []string {
	tags := make([]string, len(names))
	for i, n := range names {
		tags[i] = strings.ToLower(n)
	}
	return tags
}

// ParseKind maps an ordering spelling, in any case, to its Kind; the
// empty string is the default, DegreeAscending.
func ParseKind(s string) (Kind, error) {
	if s == "" {
		return DegreeAscending, nil
	}
	for k, n := range names {
		if strings.EqualFold(s, n) {
			return Kind(k), nil
		}
	}
	return 0, fmt.Errorf("order: unknown ordering %q (want %s)", s, strings.Join(Tags(), "|"))
}

// Permutation returns a permutation p of V such that processing new id i =
// old id p[i] in ascending i realizes the ordering. seed is used only by
// Random.
func Permutation(g *graph.Bipartite, k Kind, seed int64) []int32 {
	nv := g.NV()
	perm := make([]int32, nv)
	for i := range perm {
		perm[i] = int32(i)
	}
	switch k {
	case DegreeAscending:
		byDegree(g, perm)
	case Random:
		rng := rand.New(rand.NewSource(seed))
		rng.Shuffle(nv, func(i, j int) { perm[i], perm[j] = perm[j], perm[i] })
	case UnilateralCore:
		core := unilateralCoreness(g)
		sort.SliceStable(perm, func(i, j int) bool {
			return core[perm[i]] < core[perm[j]]
		})
	case None:
	default:
		panic(fmt.Sprintf("order: unknown Kind %d", int(k)))
	}
	return perm
}

// byDegree fills perm with V sorted by degree ascending, ties in id order.
// It is a stable counting sort, O(|V| + max degree): every rooted
// Enumerate call pays for its ordering before any worker starts.
func byDegree(g *graph.Bipartite, perm []int32) {
	maxDeg := 0
	for v := range perm {
		maxDeg = max(maxDeg, g.DegV(int32(v)))
	}
	next := make([]int, maxDeg+1) // first slot of each degree, once summed
	for v := range perm {
		next[g.DegV(int32(v))]++
	}
	slot := 0
	for d, n := range next {
		next[d] = slot
		slot += n
	}
	for v := range perm {
		d := g.DegV(int32(v))
		perm[next[d]] = int32(v)
		next[d]++
	}
}

// Permute returns g with its V side relabeled into ordering k and the
// permutation used (new id -> old id). None returns g itself and a nil
// permutation, so callers skip mapping ids back. An unknown k is an
// error.
func Permute(g *graph.Bipartite, k Kind, seed int64) (*graph.Bipartite, []int32, error) {
	switch {
	case !k.valid():
		return nil, nil, fmt.Errorf("order: unknown ordering %d", int(k))
	case k == None:
		return g, nil, nil
	}
	perm := Permutation(g, k, seed)
	pg, err := g.PermuteV(perm)
	if err != nil {
		return nil, nil, err
	}
	return pg, perm, nil
}

// Apply returns g with its V side relabeled into ordering k, which must
// be a known Kind; Permute is the checked form.
func Apply(g *graph.Bipartite, k Kind, seed int64) *graph.Bipartite {
	pg, _, err := Permute(g, k, seed)
	if err != nil {
		panic(err.Error())
	}
	return pg
}

// projectionBudget caps the one-mode projection size (in adjacency entries)
// before unilateralCoreness falls back to the two-hop-degree approximation.
const projectionBudget = 1 << 26

// unilateralCoreness computes, for every v ∈ V, its coreness in the
// one-mode projection of V (two V-vertices are adjacent iff they share at
// least one U-neighbor), by standard min-degree peeling. When the
// projection would exceed the budget (in adjacency entries) it falls back
// to the two-hop degree Σ_{u∈N(v)} (deg(u)−1), preserving the spirit of
// the order at bounded cost.
func unilateralCoreness(g *graph.Bipartite) []int32 {
	return unilateralCorenessBudget(g, projectionBudget)
}

func unilateralCorenessBudget(g *graph.Bipartite, budget int64) []int32 {
	nv := g.NV()
	var projEntries int64
	for u := int32(0); u < int32(g.NU()); u++ {
		d := int64(g.DegU(u))
		projEntries += d * (d - 1)
	}
	if projEntries > budget {
		core := make([]int32, nv)
		for v := int32(0); v < int32(nv); v++ {
			var s int64
			for _, u := range g.NeighborsOfV(v) {
				s += int64(g.DegU(u) - 1)
			}
			if s > 1<<30 {
				s = 1 << 30
			}
			core[v] = int32(s)
		}
		return core
	}

	// Build the projection adjacency (deduplicated per vertex).
	adj := make([][]int32, nv)
	seen := make([]int32, nv)
	for i := range seen {
		seen[i] = -1
	}
	for v := int32(0); v < int32(nv); v++ {
		for _, u := range g.NeighborsOfV(v) {
			for _, w := range g.NeighborsOfU(u) {
				if w != v && seen[w] != v {
					seen[w] = v
					adj[v] = append(adj[v], w)
				}
			}
		}
	}

	// Min-degree peeling with a bucket queue (O(E_proj)).
	deg := make([]int, nv)
	maxDeg := 0
	for v := range adj {
		deg[v] = len(adj[v])
		if deg[v] > maxDeg {
			maxDeg = deg[v]
		}
	}
	buckets := make([][]int32, maxDeg+1)
	for v := 0; v < nv; v++ {
		buckets[deg[v]] = append(buckets[deg[v]], int32(v))
	}
	core := make([]int32, nv)
	removed := make([]bool, nv)
	cur := int32(0)
	scanStart := 0
	for processed := 0; processed < nv; {
		// Find the lowest non-empty bucket. Degrees only drop by one per
		// removal, so resuming the scan one level below the last removal
		// keeps the whole peel O(E_proj + V·1).
		var v int32 = -1
		for d := scanStart; d <= maxDeg; d++ {
			for len(buckets[d]) > 0 {
				cand := buckets[d][len(buckets[d])-1]
				buckets[d] = buckets[d][:len(buckets[d])-1]
				if !removed[cand] && deg[cand] == d {
					v = cand
					if int32(d) > cur {
						cur = int32(d)
					}
					scanStart = d - 1
					if scanStart < 0 {
						scanStart = 0
					}
					break
				}
			}
			if v >= 0 {
				break
			}
		}
		if v < 0 {
			break // all stale entries; shouldn't happen
		}
		removed[v] = true
		core[v] = cur
		processed++
		for _, w := range adj[v] {
			if !removed[w] {
				deg[w]--
				buckets[deg[w]] = append(buckets[deg[w]], w)
			}
		}
	}
	return core
}
