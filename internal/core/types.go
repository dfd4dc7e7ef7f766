// Package core implements the paper's maximal biclique enumeration (MBE)
// algorithms: the backtracking Baseline (Algorithm 1), the two AdaMBE
// techniques — LN (local-neighborhood computational subgraphs, §III-A) and
// BIT (bitmap representation of small computational subgraphs, §III-B) —
// their integration AdaMBE (Algorithm 2), and the parallel ParAdaMBE.
//
// All engines operate on a graph whose V side has already been permuted
// into the desired processing order (see internal/order); candidates are
// always consumed in ascending V id.
package core

import (
	"context"
	"errors"
	"fmt"
	"runtime/debug"
	"time"

	"repro/internal/graph"
	"repro/internal/obs"
	"repro/internal/tle"
)

// Variant selects which enumeration algorithm runs.
type Variant int

const (
	// Baseline is Algorithm 1: backtracking on the original adjacency
	// lists, global Γ(L') maximality checks, no LN, no BIT. This is the
	// "Baseline" of the paper's breakdown analysis (§IV-C).
	Baseline Variant = iota
	// LN enables only the local-neighborhood technique (AdaMBE-LN).
	LN
	// BIT enables only the bitmap technique (AdaMBE-BIT): Algorithm 1 for
	// large nodes, the bitwise procedure once |L| ≤ τ and C ≠ ∅.
	BIT
	// Ada is full AdaMBE (Algorithm 2): LN for large nodes, BIT below τ.
	Ada
)

// String returns the paper's name for the variant.
func (v Variant) String() string {
	switch v {
	case Baseline:
		return "Baseline"
	case LN:
		return "AdaMBE-LN"
	case BIT:
		return "AdaMBE-BIT"
	case Ada:
		return "AdaMBE"
	default:
		return fmt.Sprintf("Variant(%d)", int(v))
	}
}

// Variants lists every serial variant in ablation order. The differential
// harness iterates this to cover the whole AdaMBE family.
func Variants() []Variant { return []Variant{Baseline, LN, BIT, Ada} }

// DefaultTau is the paper's default bitmap threshold τ (§III-B: one 64-bit
// word per set intersection).
const DefaultTau = 64

// MaxTau bounds configurable τ; masks are ⌈τ/64⌉ words.
const MaxTau = 4096

// Sink receives every maximal biclique on the durable emission path,
// tagged with the worker that produced it and the root V vertex (in the
// engine's processing order) whose enumeration subtree it belongs to.
// The root tag is what makes checkpoint/resume exact: root subtrees
// partition the output (each maximal biclique is emitted exactly once,
// under the minimal vertex of its R side), so a resume can discard the
// partial output of unfinished subtrees by root and re-enumerate them
// whole. Emit is called concurrently from parallel workers regardless
// of UnorderedEmit — a Sink must be safe for concurrent use by distinct
// worker ids (calls for one worker are sequential). Slices are reused;
// copy to retain. See internal/spool for the canonical implementation.
type Sink interface {
	Emit(worker int, root int32, L, R []int32)
}

// FrontierObserver tracks root-subtree completion for checkpointing, in
// two calls: Begin(r) when a piece of root r's work begins, End(r, done)
// when it ends. The engine guarantees:
//
//   - the root cursor (RootCursor) begins every root of [StartRoot,
//     EndRoot) exactly once, in ascending order, skipped roots included,
//     and ends it once its expansion returns;
//   - a ParAdaMBE subtree detached from root r begins BEFORE it enters
//     the scheduler, while r's expansion is still in flight, and ends
//     when its task returns;
//   - every Begin is matched by exactly one End, whose done is true only
//     when the work ran to completion: a stop or a panic ends it with
//     done false, and its output may then be incomplete.
//
// Implementations must be safe for concurrent use. See internal/ckpt.
type FrontierObserver interface {
	Begin(root int32)
	End(root int32, done bool)
}

// Handler receives each maximal biclique (L ⊆ U, R ⊆ V). The slices are
// reused by the engine and must be copied if retained. By default handler
// invocations are serialized, even under the parallel engine (each worker
// batches its bicliques and delivers them through a short critical
// section); with Options.UnorderedEmit the parallel engine invokes the
// handler concurrently from multiple goroutines and the handler must be
// safe for concurrent use.
type Handler func(L, R []int32)

// Options configures an enumeration run.
type Options struct {
	// Variant selects the algorithm; default Baseline.
	Variant Variant
	// Tau is the bitmap threshold τ; 0 means DefaultTau. Only meaningful
	// for BIT and Ada.
	Tau int
	// Threads > 1 runs the parallel engine (ParAdaMBE for Ada, a parallel
	// Baseline otherwise is not provided — parallel runs require Ada).
	Threads int
	// OnBiclique, if non-nil, is called for every maximal biclique.
	OnBiclique Handler
	// UnorderedEmit opts the parallel engine into unordered, concurrent
	// handler delivery: each worker calls OnBiclique directly instead of
	// batching into per-worker emission shards flushed under a shared
	// lock. This removes every copy and lock from the emission path, but
	// the handler must be safe for concurrent calls. Every maximal
	// biclique is still delivered exactly once. Serial runs ignore it.
	UnorderedEmit bool
	// Deadline, if non-zero, makes the run stop (reporting partial counts
	// and Result.StopReason == StopDeadline) once the deadline passes.
	// This implements the paper's 48-hour TLE protocol at laptop scale
	// (Fig. 9b).
	Deadline time.Time
	// Context, if non-nil, stops the run when it is canceled: the run
	// returns partial monotone counts with StopReason == StopCanceled
	// within one amortized check quantum (tle.CheckEvery nodes).
	Context context.Context
	// MaxMemoryBytes, if positive, is a soft budget on engine-tracked
	// memory — slab scratch, bitmap-CG storage, detached parallel nodes
	// and per-worker stamp tables. When the run-wide gauge exceeds the
	// budget, the run degrades like a deadline stop: partial counts are
	// returned with StopReason == StopMemoryBudget. Accounting is
	// engine-side and approximate; it bounds the dominant, dataset-driven
	// allocations, not every byte of Go runtime overhead.
	MaxMemoryBytes int64
	// FaultHook, if non-nil, is invoked at engine instrumentation sites
	// (the Site* constants). A returned error simulates an allocation
	// failure: the worker degrades exactly as if the memory budget were
	// exhausted. Panics from the hook exercise the panic-isolation path.
	// Test-only; see internal/faultinject. Must be safe for concurrent
	// calls when Threads > 1.
	FaultHook func(site string) error
	// Metrics, if non-nil, gathers the instrumentation behind Figures 4,
	// 5 and 10 (CG-size histogram, inside/outside-CG vertex accesses,
	// non-maximal node counts, small/large-node time split).
	Metrics *Metrics
	// Obs, if non-nil, attaches the live observability recorder: each
	// worker publishes a copy of its plain event counters to its probe at
	// every amortized stop-check poll (every tle.CheckEvery nodes, and at
	// each parallel task start) and when it exits, so the progress sampler
	// and the /debug endpoint can read the run while it is in flight.
	// Unlike Metrics (merged once at the end), Obs lags the workers by at
	// most one poll quantum. Nil costs nothing on the per-node path.
	Obs *obs.Recorder

	// Sink, if non-nil, additionally receives every maximal biclique with
	// its worker id and root tag (see the Sink type). Delivery order
	// matches OnBiclique's per-worker order but is unordered across
	// workers, like UnorderedEmit.
	Sink Sink
	// Frontier, if non-nil, observes root-subtree completion (see the
	// FrontierObserver type); internal/ckpt derives the checkpoint
	// watermark from it.
	Frontier FrontierObserver
	// StartRoot makes the root loop begin at this root vertex instead of
	// 0, skipping every earlier root subtree entirely. A resumed run sets
	// it to the checkpoint watermark: roots below it are already durable.
	// A StartRoot past |V| is rejected by Enumerate.
	// Root-side pruning state from the skipped prefix is not replayed —
	// that is sound (formerly-pruned roots re-enumerate to nothing but
	// non-maximal nodes; see docs/DURABILITY.md) but means a resumed run
	// may expand more nodes than the original would have.
	StartRoot int32
	// EndRoot, when positive, makes the root loop stop before this root
	// vertex: only the subtrees of roots in [StartRoot, EndRoot) are
	// enumerated. Zero means |V| (every root). Because root subtrees
	// partition the output — each maximal biclique is emitted exactly
	// once, under the minimal vertex of its R side — the ranges
	// [a, b) and [b, c) together emit exactly what [a, c) does, which is
	// what lets a distributed coordinator shard the root space across
	// workers and merge per-range digests (see internal/dist and
	// docs/DISTRIBUTED.md). An EndRoot at or below a positive StartRoot
	// (an empty or reversed range) or beyond |V| is rejected by
	// Enumerate.
	EndRoot int32

	// PadBitmaps forces every bitmap CG's mask width to ⌈τ/64⌉ words
	// instead of ⌈|L*|/64⌉. The paper's τ-sensitivity analysis (Fig. 11,
	// "when τ exceeds 64 the running time increases due to the additional
	// time required for each set intersection") implies masks sized by τ;
	// this implementation normally sizes them by the actual |L*| at
	// creation (often a single word even for large τ), which shifts the
	// optimum. Enable this to reproduce the paper's cost model.
	PadBitmaps bool

	// SkipChild, if non-nil, is consulted with |L'| before a child node is
	// generated; returning true skips the child and its entire subtree.
	// Because L only shrinks down any path, this is sound exactly for
	// predicates that are downward-closed in |L| (e.g. |L'| < p for
	// size-bounded search, or |L'|·bound ≤ best for branch-and-bound).
	// Skipped bicliques are NOT reported. The paper's §V positions AdaMBE
	// as a substrate for maximum-biclique problems; this hook (plus
	// SkipSubtree) is that substrate. Must be safe for concurrent calls
	// when Threads > 1.
	SkipChild func(lenL int) bool
	// SkipSubtree, if non-nil, is consulted after a maximal node
	// (|L|, |R|, |C|) is generated and reported; returning true skips the
	// recursion below it. Sound for bounds monotone under L-shrinking and
	// R-growth capped by |R|+|C|. Must be safe for concurrent calls when
	// Threads > 1.
	SkipSubtree func(lenL, lenR, lenC int) bool
}

func (o *Options) tau() int {
	if o.Tau == 0 {
		return DefaultTau
	}
	return o.Tau
}

// StopReason says why an enumeration run returned before exhausting the
// search tree. StopNone means the run completed.
type StopReason uint8

const (
	// StopNone: the run enumerated the full tree.
	StopNone StopReason = iota
	// StopDeadline: Options.Deadline passed (the paper's TLE protocol).
	StopDeadline
	// StopCanceled: Options.Context was canceled.
	StopCanceled
	// StopMemoryBudget: engine-tracked memory exceeded
	// Options.MaxMemoryBytes (or a fault hook simulated an allocation
	// failure).
	StopMemoryBudget
	// StopPanic: a worker panicked; Enumerate recovered, returned partial
	// results, and reported the panic as an error wrapping ErrPanic.
	StopPanic
)

// String names the stop reason.
func (r StopReason) String() string {
	switch r {
	case StopNone:
		return "none"
	case StopDeadline:
		return "deadline"
	case StopCanceled:
		return "canceled"
	case StopMemoryBudget:
		return "memory-budget"
	case StopPanic:
		return "panic"
	default:
		return fmt.Sprintf("StopReason(%d)", int(r))
	}
}

// StopReasonOf maps a tle.Reason observed by a stopper onto the Result
// vocabulary. Exported for sibling enumeration packages (the competitor
// baselines) that share the stopper infrastructure and report through
// core.Result.
func StopReasonOf(r tle.Reason) StopReason { return stopReasonFrom(r) }

// stopReasonFrom maps a tle.Reason observed by the stoppers onto the
// Result vocabulary. tle.Aborted means a sibling worker panicked, so the
// run as a whole stopped because of that panic.
func stopReasonFrom(r tle.Reason) StopReason {
	switch r {
	case tle.DeadlineExceeded:
		return StopDeadline
	case tle.Canceled:
		return StopCanceled
	case tle.MemoryExceeded:
		return StopMemoryBudget
	case tle.Aborted:
		return StopPanic
	default:
		return StopNone
	}
}

// Result summarizes an enumeration run.
type Result struct {
	// Count is the number of maximal bicliques reported. It is monotone:
	// every biclique counted was also delivered to the handler, whatever
	// stopped the run.
	Count int64
	// StopReason, when not StopNone, reports why the run stopped before
	// completing; Count and any gathered Metrics are still valid partial
	// results.
	StopReason StopReason
	// TimedOut mirrors StopReason == StopDeadline.
	//
	// Deprecated: use StopReason; TimedOut is kept as an alias for
	// callers of the original deadline-only API.
	TimedOut bool
	// Elapsed is the wall-clock enumeration time (graph loading excluded,
	// as in §IV-A).
	Elapsed time.Duration
}

// Metrics carries the instrumentation counters used by the paper's
// motivation and breakdown figures. Under the parallel engine the
// scheduler counters and the time split depend on the schedule, and the
// tree-shape counters may vary slightly between runs as well: a root
// taken before the root that dominates it has recorded that domination
// is expanded instead of skipped. The counters this touches are
// NodesGenerated, NodesNonMaximal, NodesPruned, SetIntersections, the
// access counters, CGHist and the bitmap counts; the bicliques found
// (NodesMaximal, Result.Count) never vary.
type Metrics struct {
	// NodesGenerated counts enumeration-tree nodes whose (L', R', C') sets
	// were materialized (maximal or not).
	NodesGenerated int64
	// NodesMaximal / NodesNonMaximal split NodesGenerated by the Γ check.
	NodesMaximal    int64
	NodesNonMaximal int64
	// NodesPruned counts children skipped by the LN pruning rule
	// (§III-A(3)); they are not included in NodesGenerated. Under AdaMBE
	// it includes the rule's prunes inside the bitmap procedure, so a
	// serial AdaMBE run's tree-shape counters (NodesGenerated,
	// NodesMaximal, NodesNonMaximal, NodesPruned, CGHist) equal
	// AdaMBE-LN's at every τ. AdaMBE-BIT prunes nothing.
	NodesPruned int64
	// AccessesInsideCG / AccessesOutsideCG count adjacency entries touched
	// during set operations that fall inside vs outside the current
	// computational subgraph (Fig. 5). At the LN engines' root, where the
	// CG is the whole graph, AccessesInsideCG counts the adjacency entries
	// the root's wedge walks read: Σ deg(u) over u ∈ N(v') per walk, with
	// the second walk, into lists or into a promoted root's masks, only
	// for a maximal root with candidates.
	AccessesInsideCG  int64
	AccessesOutsideCG int64
	// SetIntersections counts pairwise set-intersection operations. The
	// LN engines' root reads its node off wedge counts instead, and
	// counts one per two-hop vertex it classifies — every vertex after v'
	// (each joins R' or C'), then those before v' up to the first
	// maximality violator — as many as intersecting each would take. In
	// the bitmap procedure each mask test counts one; under AdaMBE a
	// non-maximal child also tests every later candidate for the pruning
	// rule, as searchLN's classification does.
	SetIntersections int64
	// CGHist is a log₂-bucketed joint histogram of (|L|, |C|) over all
	// nodes entered (Fig. 4): CGHist[i][j] counts nodes with
	// 2^i ≤ max(|L|,1) < 2^(i+1) and likewise j for |C|.
	CGHist [CGHistBuckets][CGHistBuckets]int64
	// SmallNodeTime / LargeNodeTime split enumeration time at the τ
	// boundary (Fig. 10d): SmallNodeTime is the total time spent inside
	// maximal subtrees whose roots have |L| ≤ τ.
	SmallNodeTime time.Duration
	LargeNodeTime time.Duration
	// BitmapsCreated counts bitmap CGs materialized by BIT.
	BitmapsCreated int64
	// BitPromotions counts list-procedure subtrees (LN or global) that
	// switched to the bitwise procedure at the τ boundary, LN roots whose
	// masks come straight from their wedge walk included. The promotion
	// rate — BitPromotions against NodesGenerated — says how much of the
	// tree the bitmap fast path captured at the configured τ.
	BitPromotions int64
	// BitWidthHist is a histogram of bitmap-CG mask widths in 64-bit
	// words: index w counts CGs built with w+1 words per mask, the last
	// bucket everything at least that wide. With multi-word kernels the
	// width distribution (not just the count) decides whether raising τ
	// pays: widths ≤ bitset.SmallStrideMax run the unrolled kernels.
	BitWidthHist [5]int64

	// Scheduler counters (parallel runs only; zero for serial engines).
	// TasksSpawned counts subtrees detached into the work-stealing pool,
	// TasksStolen the subset executed by a worker other than the one that
	// detached them, and TasksInlined the spawn offers the adaptive cutoff
	// declined (the subtree recursed inline instead of paying the detach
	// copy). A root promoted to a bitmap is never offered, so it counts in
	// neither.
	TasksSpawned int64
	TasksStolen  int64
	TasksInlined int64
	// MaxQueueDepth is the highest per-worker deque occupancy observed;
	// merge keeps the maximum rather than summing.
	MaxQueueDepth int64

	// Spawn-arena counters (parallel runs only). A spawn served from the
	// worker's recycled-node arena is a hit — the detach copy reuses a
	// retained buffer instead of allocating; ArenaBytesReused totals the
	// payload bytes those hits avoided allocating.
	ArenaSpawnHits   int64
	ArenaSpawnMisses int64
	ArenaBytesReused int64
}

// CGHistBuckets is the number of log₂ buckets per axis in Metrics.CGHist
// (bucket 20 holds everything ≥ 2^20).
const CGHistBuckets = 21

func histBucket(n int) int {
	if n <= 1 {
		return 0
	}
	b := 0
	for n > 1 {
		n >>= 1
		b++
	}
	if b >= CGHistBuckets {
		b = CGHistBuckets - 1
	}
	return b
}

func (m *Metrics) observeNode(lenL, lenC int) {
	m.CGHist[histBucket(lenL)][histBucket(lenC)]++
}

// merge adds o's counters into m (parallel workers).
func (m *Metrics) merge(o *Metrics) {
	m.NodesGenerated += o.NodesGenerated
	m.NodesMaximal += o.NodesMaximal
	m.NodesNonMaximal += o.NodesNonMaximal
	m.NodesPruned += o.NodesPruned
	m.AccessesInsideCG += o.AccessesInsideCG
	m.AccessesOutsideCG += o.AccessesOutsideCG
	m.SetIntersections += o.SetIntersections
	m.SmallNodeTime += o.SmallNodeTime
	m.LargeNodeTime += o.LargeNodeTime
	m.BitmapsCreated += o.BitmapsCreated
	m.BitPromotions += o.BitPromotions
	for i := range m.BitWidthHist {
		m.BitWidthHist[i] += o.BitWidthHist[i]
	}
	m.TasksSpawned += o.TasksSpawned
	m.TasksStolen += o.TasksStolen
	m.TasksInlined += o.TasksInlined
	m.ArenaSpawnHits += o.ArenaSpawnHits
	m.ArenaSpawnMisses += o.ArenaSpawnMisses
	m.ArenaBytesReused += o.ArenaBytesReused
	if o.MaxQueueDepth > m.MaxQueueDepth {
		m.MaxQueueDepth = o.MaxQueueDepth
	}
	for i := range m.CGHist {
		for j := range m.CGHist[i] {
			m.CGHist[i][j] += o.CGHist[i][j]
		}
	}
}

// ErrBadOptions reports invalid enumeration options.
var ErrBadOptions = errors.New("core: invalid options")

// rootFrontierEnd is the exclusive end of the run's root frontier — the
// value progress reporting treats as "100% of roots".
func rootFrontierEnd(opts Options, nv int) int32 {
	if opts.EndRoot > 0 {
		return opts.EndRoot
	}
	return int32(nv)
}

// ValidateRootRange checks a [start, end) root range against a graph
// with nv roots: end == 0 means "to the last root", and start == nv
// with it is the empty tail a resumed run whose watermark reached the
// end asks for. A negative start or end, a start past nv, an empty or
// reversed range, or one reaching past nv, is an ErrBadOptions. Shared
// by every layer that plumbs StartRoot/EndRoot (core, baselines, the
// public API and internal/dist), so the error vocabulary cannot drift
// between them.
func ValidateRootRange(start, end int32, nv int) error {
	switch {
	case start < 0:
		return fmt.Errorf("%w: negative StartRoot %d", ErrBadOptions, start)
	case end < 0:
		return fmt.Errorf("%w: negative EndRoot %d", ErrBadOptions, end)
	case end == 0 && start > int32(nv):
		return fmt.Errorf("%w: StartRoot %d exceeds the graph's %d roots", ErrBadOptions, start, nv)
	case end == 0:
		return nil
	case end <= start:
		return fmt.Errorf("%w: empty or reversed root range [%d, %d)", ErrBadOptions, start, end)
	case end > int32(nv):
		return fmt.Errorf("%w: EndRoot %d exceeds the graph's %d roots", ErrBadOptions, end, nv)
	}
	return nil
}

// ErrPanic reports that an enumeration worker panicked. Enumerate
// recovers the panic, winds the run down without leaking goroutines, and
// returns partial results alongside an error wrapping ErrPanic.
var ErrPanic = errors.New("core: panic during enumeration")

// PanicError wraps a recovered panic value (with its stack) as an error
// wrapping ErrPanic. Exported for sibling enumeration packages that apply
// the same panic-isolation discipline.
func PanicError(where string, r any) error {
	return fmt.Errorf("%w in %s: %v\n%s", ErrPanic, where, r, debug.Stack())
}

// panicError is the package-local spelling of PanicError.
func panicError(where string, r any) error { return PanicError(where, r) }

// StopConfig translates enumeration options into the stopper conditions.
// Exported for the competitor baselines, which take the same Options.
func (o *Options) StopConfig() tle.Config {
	return tle.Config{
		Deadline:       o.Deadline,
		Context:        o.Context,
		MaxMemoryBytes: o.MaxMemoryBytes,
	}
}

// Enumerate runs the selected algorithm over g and returns the result.
// g's V side must already be in the desired processing order.
//
// Lifecycle guarantees: the run stops promptly when the deadline passes,
// the context is canceled, or the soft memory budget is exceeded —
// Result.StopReason says which — and a panic in any engine or worker is
// recovered into an error wrapping ErrPanic. In every case partial
// monotone counts (and Metrics gathered so far) are returned and no
// goroutines are leaked.
func Enumerate(g *graph.Bipartite, opts Options) (Result, error) {
	if opts.Tau < 0 || opts.Tau > MaxTau {
		return Result{}, fmt.Errorf("%w: tau %d out of range (0, %d]", ErrBadOptions, opts.Tau, MaxTau)
	}
	if opts.Threads < 0 {
		return Result{}, fmt.Errorf("%w: negative thread count %d", ErrBadOptions, opts.Threads)
	}
	if opts.Threads > 1 && opts.Variant != Ada {
		return Result{}, fmt.Errorf("%w: the parallel engine is ParAdaMBE and requires Variant == Ada", ErrBadOptions)
	}
	switch opts.Variant {
	case Baseline, LN, BIT, Ada:
	default:
		return Result{}, fmt.Errorf("%w: unknown variant %d", ErrBadOptions, int(opts.Variant))
	}
	if err := ValidateRootRange(opts.StartRoot, opts.EndRoot, g.NV()); err != nil {
		return Result{}, err
	}

	start := time.Now()
	shared := &tle.Shared{}
	workers := 1
	if opts.Threads > 1 {
		workers = opts.Threads
	}
	opts.Obs.RunBegin(obs.RunConfig{
		Workers:        workers,
		Shared:         shared,
		Deadline:       opts.Deadline,
		MemBudgetBytes: opts.MaxMemoryBytes,
		Frontier:       int64(rootFrontierEnd(opts, g.NV())),
	})
	var res Result
	var err error
	if opts.Threads > 1 {
		res, err = enumerateParallel(g, opts, shared)
	} else {
		res, err = enumerateSerial(g, opts, shared)
	}
	res.TimedOut = res.StopReason == StopDeadline
	res.Elapsed = time.Since(start)
	opts.Obs.Finish(res.StopReason.String())
	return res, err
}

// enumerateSerial runs one engine with panic isolation: a panic anywhere
// in the engine (or a user handler) becomes an error return carrying the
// partial count and metrics gathered so far.
func enumerateSerial(g *graph.Bipartite, opts Options, shared *tle.Shared) (res Result, err error) {
	e := newEngine(g, opts, shared, 0)
	if opts.Variant == LN || opts.Variant == Ada {
		e.dom = newRootDom(g.NV(), e.chargeMem)
	}
	e.probe.SetState(obs.StateBusy)
	defer func() {
		e.publish()
		if opts.Metrics != nil {
			e.mergeMetrics(opts.Metrics)
		}
		res = Result{Count: e.ctr.Bicliques, StopReason: stopReasonFrom(e.stop.Reason())}
		if r := recover(); r != nil {
			res.StopReason = StopPanic
			err = panicError("serial engine", r)
		}
	}()
	e.run(NewRootCursor(&opts, g.NV()))
	return res, nil
}
