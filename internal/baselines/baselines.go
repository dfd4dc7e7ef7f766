// Package baselines reimplements the competitor MBE algorithms the paper
// evaluates against (§IV-A), from scratch and at the level of their core
// algorithmic ideas:
//
//   - FMBE  — plain MBEA-style backtracking on global adjacency lists with
//     an explicit excluded set; no ordering, no caching. Lowest memory,
//     slowest runtime (the paper's Fig. 8 profile).
//   - PMBE  — pivot-style enumeration: per-node candidate re-ordering by
//     local degree plus containment-based skipping of duplicate nodes.
//   - ooMBEA — unilateral-core (UC) global ordering computed up front (its
//     runtime includes that overhead, as the paper notes for Fig. 12),
//     then candidate-set backtracking.
//   - ParMBE — shared-memory parallel MBE using a hash-table graph
//     representation (§II-B) and per-vertex task parallelism.
//   - GMBE   — the authors' GPU algorithm. No GPU exists here, so this is
//     GMBE-sim: the same two-level decomposition (one first-level subtree
//     per "virtual warp") with per-thread pre-allocated workspaces, run on
//     an oversubscribed goroutine pool. It reproduces GMBE's two
//     signatures — large pre-allocated memory and strength on
//     many-small-subtree datasets — without claiming GPU bandwidth.
//
// Every implementation is cross-validated against the brute-force oracle
// and the core engines in the tests.
package baselines

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/order"
	"repro/internal/tle"
	"repro/internal/vset"
)

// Algorithm names a competitor implementation.
type Algorithm string

// The competitor algorithms evaluated in the paper.
const (
	FMBE   Algorithm = "FMBE"
	PMBE   Algorithm = "PMBE"
	OOMBEA Algorithm = "ooMBEA"
	ParMBE Algorithm = "ParMBE"
	GMBE   Algorithm = "GMBE"
	// BBK is not in the paper's evaluation: it is the pivot-based
	// bipartite Bron–Kerbosch of Baudin et al. (arXiv:2405.04428), added
	// as a post-paper serial engine; see bbk.go. Unlike the other
	// competitors it supports the durable emission path
	// (core.Options.Sink/Frontier/StartRoot).
	BBK Algorithm = "BBK"
)

// Instrumentation sites where core.Options.FaultHook fires.
const (
	// SiteSerialNode fires per candidate expansion in the shared serial
	// skeleton (FMBE, PMBE, ooMBEA).
	SiteSerialNode = "baselines/serial-node"
	// SiteParMBETask fires at every ParMBE task start and per candidate
	// inside its recursion.
	SiteParMBETask = "baselines/parmbe-task"
	// SiteGMBETask fires at every GMBE-sim task start and per candidate
	// expansion inside a warp.
	SiteGMBETask = "baselines/gmbe-task"
	// SiteBBKNode fires per root and per pivot branch in BBK.
	SiteBBKNode = "baselines/bbk-node"
)

// Run executes the named competitor algorithm on g. g's V side is used in
// its natural order except for ooMBEA, which applies its own UC ordering
// internally (ids reported to the handler are mapped back to g's ids).
//
// opts is the core engines' run spec, read as follows: Threads by ParMBE
// and GMBE (<= 0 means GOMAXPROCS), OnBiclique, Deadline, Context,
// MaxMemoryBytes and FaultHook (at the Site* constants) by every
// algorithm, and Metrics (node and set-intersection counters) plus the
// durable emission path — Sink, Frontier, StartRoot and EndRoot — by BBK
// alone, which shares the core engines' root partition (a maximal
// biclique is emitted under root min(R)). Parallel algorithms serialize
// calls to OnBiclique. The remaining fields are core-only.
//
// Lifecycle guarantees match core.Enumerate: deadline, context cancellation
// and the memory budget stop the run with partial monotone counts and the
// matching Result.StopReason, and a panic in any algorithm or user handler
// is recovered into an error wrapping core.ErrPanic with no goroutine
// leaked.
func Run(g *graph.Bipartite, alg Algorithm, opts core.Options) (core.Result, error) {
	if err := core.ValidateRootRange(opts.StartRoot, opts.EndRoot, g.NV()); err != nil {
		return core.Result{}, err
	}
	start := time.Now()
	shared := &tle.Shared{}
	var res core.Result
	var err error
	switch alg {
	case FMBE:
		res, err = runMBEA(g, mbeaConfig{}, opts, shared)
	case PMBE:
		res, err = runMBEA(g, mbeaConfig{sortPerNode: true, skipDuplicateNodes: true}, opts, shared)
	case OOMBEA:
		perm := order.Permutation(g, order.UnilateralCore, 0)
		og, oerr := g.PermuteV(perm)
		if oerr != nil {
			return core.Result{}, fmt.Errorf("baselines: ooMBEA ordering: %w", oerr)
		}
		inner := opts
		if opts.OnBiclique != nil {
			h := opts.OnBiclique
			buf := make([]int32, 0, 64)
			inner.OnBiclique = func(L, R []int32) {
				buf = buf[:0]
				for _, v := range R {
					buf = append(buf, perm[v])
				}
				h(L, buf)
			}
		}
		res, err = runMBEA(og, mbeaConfig{}, inner, shared)
	case ParMBE:
		res, err = runParMBE(g, opts, shared)
	case GMBE:
		res, err = runGMBESim(g, opts, shared)
	case BBK:
		res, err = runBBK(g, opts, shared)
	default:
		return core.Result{}, fmt.Errorf("baselines: unknown algorithm %q", alg)
	}
	res.Elapsed = time.Since(start)
	return res, err
}

// worker is the per-goroutine state every baseline engine starts from: a
// stopper over the run's shared state, an id slab and a two-hop gatherer,
// both charged to the run's memory gauge, and the handler it reports each
// biclique to.
type worker struct {
	g       *graph.Bipartite
	handler core.Handler
	stop    tle.Stopper
	ids     vset.Slab[int32]
	th      *twoHop
	count   int64
}

// init readies w for one goroutine of a run of opts over g, charging the
// two-hop tables and extra bytes of the engine's own fixed footprint.
func (w *worker) init(g *graph.Bipartite, opts *core.Options, shared *tle.Shared, extra int64) {
	w.g, w.handler, w.th = g, opts.OnBiclique, newTwoHop(g)
	w.stop = tle.NewStopper(shared, opts.StopConfig())
	w.ids.OnGrow = w.stop.AddMem
	w.stop.AddMem(twoHopBytes(g) + extra)
}

// emit counts one maximal biclique and hands it to the handler.
func (w *worker) emit(L, R []int32) {
	w.count++
	if w.handler != nil {
		w.handler(L, R)
	}
}

// serialized wraps h so that the workers of a parallel engine call it one
// at a time; nil stays nil.
func serialized(h core.Handler) core.Handler {
	if h == nil {
		return nil
	}
	var mu sync.Mutex
	return func(L, R []int32) {
		mu.Lock()
		defer mu.Unlock()
		h(L, R)
	}
}
