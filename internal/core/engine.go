package core

import (
	"slices"
	"time"

	"repro/internal/bitset"
	"repro/internal/graph"
	"repro/internal/obs"
	"repro/internal/tle"
	"repro/internal/vset"
)

// Fault-injection site names (Options.FaultHook); see internal/faultinject.
const (
	// SiteRoot fires once per root candidate, in every root loop.
	SiteRoot = "core/root"
	// SiteNode fires once per searchLN child-node expansion.
	SiteNode = "core/node"
	// SiteBitmap fires once per bitmap-CG build.
	SiteBitmap = "core/bitmap"
	// SiteSpawn fires once per subtree detached to the parallel queue.
	SiteSpawn = "core/spawn"
)

// engine holds all per-run (or per-worker, in the parallel case) state for
// one enumeration. It is not safe for concurrent use; ParAdaMBE gives each
// worker its own engine and merges results.
type engine struct {
	g       *graph.Bipartite
	variant Variant
	tau     int
	handler Handler
	stop    tle.Stopper
	hook    func(site string) error // Options.FaultHook

	// ctr is the worker's one store of event counts: nodes, bicliques,
	// bitmaps, promotions, tasks, steals and the root cursor, each counted
	// once with a plain increment. Options.Metrics gets them merged at the
	// end of the run (see mergeMetrics); Options.Obs gets a copy at every
	// stop-check poll and on exit (see publish).
	ctr obs.Counters

	// Durable-emission state (Options.Sink / Frontier / StartRoot; all
	// zero-valued and branch-free on ordinary runs). wid is this engine's
	// worker id (the sink routing key); curRoot is the root vertex of the
	// subtree currently being enumerated — set by the root loops per
	// iteration and by the parallel worker per task from the task's tag.
	wid       int
	sink      Sink
	frontier  FrontierObserver
	curRoot   int32
	startRoot int32
	endRoot   int32 // exclusive root limit; 0 means |V|

	// collect gates the figure counters in metrics that cost something
	// per set operation or need the clock (Options.Metrics != nil).
	collect bool
	metrics Metrics
	inSmall bool // currently timing a |L| ≤ τ subtree (Fig. 10d)
	padBits bool // Options.PadBitmaps

	// probe is where publish copies ctr (Options.Obs); nil when
	// observability is off.
	probe *obs.WorkerProbe

	ids  slab[int32]   // vertex-id and offset scratch
	hdrs slab[[]int32] // slice-header scratch for local-neighborhood lists

	// Epoch-stamped scratch maps (see stamp.go semantics below): value is
	// valid only when the matching mark equals the current epoch.
	epoch int32
	uMark []int32 // per-U stamp
	uVal  []int32 // position of u within the current bitmap's L*
	vMark []int32 // per-V stamp
	vVal  []int32 // CG-local index of v within the current bitmap

	// spawn, when non-nil, offers a generated maximal node to the parallel
	// scheduler; a true return means the subtree was handed off and the
	// caller must not recurse. The slices are slab-backed: the scheduler
	// must detach (deep-copy) them before returning true. depth is the
	// enumeration-tree depth of the offered node.
	spawn func(L, R, candIDs []int32, candNbrs [][]int32, exclIDs []int32, exclNbrs [][]int32, depth int) bool
	// arena recycles the nodes spawn detaches (parallel runs only).
	arena nodeArena

	// allU caches [0, NU) for the root node.
	allU []int32

	// cg is the engine's single pooled bitmap CG (bitmap subtrees never
	// nest; see bitCG).
	cg bitCG

	// rels is the reusable candidate-classification buffer of the batched
	// multi-word bitwise kernels (see relScratch).
	rels []bitset.Rel

	// Optional search-pruning hooks (Options.SkipChild / SkipSubtree).
	skipChild   func(lenL int) bool
	skipSubtree func(lenL, lenR, lenC int) bool
}

// newEngine builds one enumeration engine (the whole run when serial, one
// worker when parallel). shared carries the run's stop state and memory
// gauge; every worker of a run must receive the same *tle.Shared. wid is
// the worker index used to claim a live-counter probe from Options.Obs
// (serial runs are worker 0).
func newEngine(g *graph.Bipartite, opts Options, shared *tle.Shared, wid int) *engine {
	e := &engine{
		g:       g,
		variant: opts.Variant,
		tau:     opts.tau(),
		handler: opts.OnBiclique,
		hook:    opts.FaultHook,
		collect: opts.Metrics != nil,
		probe:   opts.Obs.Worker(wid),

		wid:       wid,
		sink:      opts.Sink,
		frontier:  opts.Frontier,
		startRoot: opts.StartRoot,
		endRoot:   opts.EndRoot,
	}
	cfg := opts.StopConfig()
	if e.probe != nil {
		cfg.OnPoll = e.publish
	}
	e.stop = tle.NewStopper(shared, cfg)
	e.skipChild = opts.SkipChild
	e.skipSubtree = opts.SkipSubtree
	e.padBits = opts.PadBitmaps
	e.ids.OnGrow = e.chargeMem
	e.hdrs.OnGrow = e.chargeMem
	e.cg.charge = e.chargeMem
	e.uMark = make([]int32, g.NU())
	e.uVal = make([]int32, g.NU())
	e.vMark = make([]int32, g.NV())
	e.vVal = make([]int32, g.NV())
	for i := range e.uMark {
		e.uMark[i] = -1
	}
	for i := range e.vMark {
		e.vMark[i] = -1
	}
	e.allU = make([]int32, g.NU())
	for i := range e.allU {
		e.allU[i] = int32(i)
	}
	// Per-worker stamp tables and the root candidate list: 4 bytes each,
	// three |U|-sized and two |V|-sized arrays.
	e.chargeMem(int64(3*g.NU()+2*g.NV()) * 4)
	return e
}

// chargeMem accounts engine-side allocation growth against the run's soft
// memory budget.
func (e *engine) chargeMem(bytes int64) { e.stop.AddMem(bytes) }

// publish copies the worker's counters to its live probe. The stopper
// calls it at every poll; the worker calls it once more on exit, before
// any count reconciliation, so published counts never go down.
func (e *engine) publish() {
	e.ctr.ArenaReuse, _ = e.arena.free.Stats()
	e.probe.Publish(&e.ctr)
}

// mergeMetrics folds the worker's counters and figure counters into m.
// Every maximal node is emitted exactly once, so NodesMaximal is the
// biclique count and the rest of NodesGenerated is non-maximal.
func (e *engine) mergeMetrics(m *Metrics) {
	c := &e.ctr
	e.metrics.NodesGenerated = c.NodesLN + c.NodesBit
	e.metrics.NodesMaximal = c.Bicliques
	e.metrics.NodesNonMaximal = e.metrics.NodesGenerated - c.Bicliques
	e.metrics.BitmapsCreated = c.Bitmaps
	e.metrics.BitPromotions = c.Promotions
	e.metrics.TasksStolen = c.Steals
	e.arena.stats(&e.metrics)
	m.merge(&e.metrics)
}

// faultStep runs the test-only fault hook at an instrumentation site. An
// injected allocation failure degrades the worker exactly like an
// exhausted memory budget; injected panics propagate into the engine's
// panic-isolation path.
func (e *engine) faultStep(site string) {
	if e.hook == nil {
		return
	}
	if err := e.hook(site); err != nil {
		e.stop.Fail(tle.MemoryExceeded)
	}
}

// run executes the configured variant from the root node (U, ∅, V) on a
// serial run: the LN engines take every root in one claim.
func (e *engine) run() {
	start := time.Now()
	if e.collect {
		e.metrics.observeNode(len(e.allU), e.g.NV())
	}
	switch e.variant {
	case Baseline, BIT:
		e.runGlobalRoot()
	case LN, Ada:
		nv := e.g.NV()
		e.runLNRoot(newRootCursor(e.startRoot, e.rootLimit(nv), nv, false, nil, e.chargeMem))
	}
	if e.collect {
		e.metrics.LargeNodeTime = time.Since(start) - e.metrics.SmallNodeTime
	}
}

// rootScratch holds the reusable two-hop gathering buffers used by the
// root loops. Processing root children by scanning all |V| candidates per
// child costs O(|V|²) set intersections; instead the candidate suffix and
// excluded prefix relevant to a root child v' are gathered from v's two-hop
// neighborhood ⋃_{u∈N(v')} N(u), the standard root optimization in MBE
// implementations. It is applied identically to every engine (including
// Baseline and the competitor reimplementations), so no algorithm
// comparison is distorted.
type rootScratch struct {
	suffix []int32 // two-hop vertices with id > v' (future candidates)
	prefix []int32 // two-hop vertices with id < v' (already traversed)
}

// gatherTwoHop fills rs with the distinct two-hop neighbors of vp, split
// around vp, using the engine's epoch stamps. With a cursor, vertices it
// records as dominated below vp are omitted entirely (pruned root
// candidates); rc may be nil. The suffix is returned sorted ascending so
// candidate order matches the sequential semantics.
func (e *engine) gatherTwoHop(vp int32, lq []int32, rc *rootCursor, rs *rootScratch) {
	epoch := e.stampEpoch()
	rs.suffix = rs.suffix[:0]
	rs.prefix = rs.prefix[:0]
	for _, u := range lq {
		for _, w := range e.g.NeighborsOfU(u) {
			if w == vp || e.vMark[w] == epoch {
				continue
			}
			e.vMark[w] = epoch
			if rc != nil && rc.dominated(w, vp) {
				continue
			}
			if w > vp {
				rs.suffix = append(rs.suffix, w)
			} else {
				rs.prefix = append(rs.prefix, w)
			}
		}
	}
	slices.Sort(rs.suffix)
}

// rootLimit resolves the engine's exclusive root bound: EndRoot when a
// range was requested, |V| otherwise.
func (e *engine) rootLimit(nv int) int32 {
	if e.endRoot > 0 {
		return e.endRoot
	}
	return int32(nv)
}

// runGlobalRoot runs the root loop of Algorithm 1 (Baseline / AdaMBE-BIT):
// for every v' ∈ V (ascending), generate the first-level node from v's
// two-hop neighborhood and recurse with searchGlobal.
func (e *engine) runGlobalRoot() {
	g := e.g
	var rs rootScratch
	for vp, limit := e.startRoot, e.rootLimit(g.NV()); vp < limit; vp++ {
		e.ctr.Root = int64(vp) + 1
		if g.DegV(vp) == 0 {
			e.rootDone(vp)
			continue
		}
		if e.stop.Hit() {
			return
		}
		e.curRoot = vp
		e.faultStep(SiteRoot)
		lq := g.NeighborsOfV(vp) // L' = U ∩ N(v')
		if e.skipChild != nil && e.skipChild(len(lq)) {
			e.rootDone(vp)
			continue
		}
		e.gatherTwoHop(vp, lq, nil, &rs)

		mark := e.ids.Mark()
		rq := e.ids.Alloc(1 + len(rs.suffix))
		rq[0] = vp
		nr := 1
		cq := e.ids.Alloc(len(rs.suffix))
		nc := 0
		for _, vc := range rs.suffix {
			nvc := g.NeighborsOfV(vc)
			m := intersectLen(lq, nvc)
			if e.collect {
				e.metrics.SetIntersections++
				e.metrics.AccessesInsideCG += int64(len(lq) + m)
				e.metrics.AccessesOutsideCG += int64(len(nvc) - m)
			}
			if m == len(lq) {
				rq[nr] = vc
				nr++
			} else { // two-hop membership guarantees m > 0
				cq[nc] = vc
				nc++
			}
		}
		e.ctr.NodesLN++
		if e.gammaSize(lq) == nr {
			if e.collect {
				e.metrics.observeNode(len(lq), nc)
			}
			e.emit(lq, rq[:nr])
			if e.skipSubtree == nil || !e.skipSubtree(len(lq), nr, nc) {
				t0, timed := e.enterSmallTimer(len(lq))
				e.searchGlobal(lq, rq[:nr], cq[:nc], 1)
				e.exitSmallTimer(t0, timed)
			}
		}
		e.ids.Release(mark)
		// A stop observed mid-subtree means vp's emission is incomplete:
		// leave it unreported so the checkpoint watermark stays below it
		// and a resume re-enumerates the whole root (rootDone contract).
		if e.stop.Stopped() {
			return
		}
		e.rootDone(vp)
	}
}

// runLNRoot runs the root loop of the LN engines over the roots it claims
// from rc, until none are left or the run stops: children are generated
// from two-hop neighborhoods, their local-neighborhood caches are
// materialized, and the LN pruning rule applies across root candidates
// through rc's run-wide domination record. A serial run makes one claim
// covering every root; a ParAdaMBE root task claims one root at a time.
func (e *engine) runLNRoot(rc *rootCursor) {
	var rs rootScratch
	for {
		lo, hi := rc.claim()
		if lo == hi {
			return
		}
		for vp := lo; vp < hi; vp++ {
			if e.lnRoot(rc, vp, &rs) {
				return
			}
		}
	}
}

// lnRoot runs root vp of a claim and reports whether the run stopped. On
// a run-wide claim, a stop observed mid-subtree leaves vp unreported, so
// the checkpoint watermark stays below it and a resume re-enumerates the
// whole root (rootDone contract). A one-root claim is released instead:
// discarded when the run is stopping or the expansion panicked. Its
// forced Poll, as at the end of a parallel task, sees sibling trips the
// local stopper has not observed yet — conservatively discarding a root
// that did complete is safe; the converse would corrupt resume.
func (e *engine) lnRoot(rc *rootCursor, vp int32, rs *rootScratch) (stopped bool) {
	e.ctr.Root = int64(vp) + 1
	if !rc.perRoot {
		e.expandLNRoot(rc, vp, rs)
		if e.stop.Stopped() {
			return true
		}
		e.rootDone(vp)
		return false
	}
	stopped = true // until the expansion returns
	defer func() { rc.release(vp, stopped) }()
	e.expandLNRoot(rc, vp, rs)
	stopped = e.stop.Poll()
	return stopped
}

// expandLNRoot generates root vp's first-level node and searches its
// subtree, unless vp is skipped (degree 0, dominated, or the SkipChild
// filter) or the run is stopping.
func (e *engine) expandLNRoot(rc *rootCursor, vp int32, rs *rootScratch) {
	g := e.g
	if g.DegV(vp) == 0 || rc.dominated(vp, vp) {
		return
	}
	if e.stop.Hit() {
		return
	}
	e.curRoot = vp
	e.faultStep(SiteRoot)
	lq := g.NeighborsOfV(vp)
	if e.skipChild != nil && e.skipChild(len(lq)) {
		return
	}
	e.gatherTwoHop(vp, lq, rc, rs)
	ep := e.stampL(lq)

	idMark := e.ids.Mark()
	hdrMark := e.hdrs.Mark()
	defer e.ids.Release(idMark)
	defer e.hdrs.Release(hdrMark)
	rq := e.ids.Alloc(1 + len(rs.suffix))
	rq[0] = vp
	nr := 1
	cqIDs := e.ids.Alloc(len(rs.suffix))
	cqNbrs := e.hdrs.Alloc(len(rs.suffix))
	nc := 0
	for _, vc := range rs.suffix {
		nb := g.NeighborsOfV(vc) // root local neighborhood = N(v_c)
		buf := e.ids.Alloc(min(len(lq), len(nb)))
		m := e.localIntersect(buf, lq, nb, ep)
		e.ids.ShrinkLast(len(buf), m)
		if e.collect {
			e.metrics.SetIntersections++
			e.metrics.AccessesInsideCG += int64(len(lq) + len(nb))
		}
		if m == len(nb) {
			rc.recordDominator(vc, vp)
			if e.collect {
				e.metrics.NodesPruned++
			}
		}
		switch {
		case m == len(lq):
			rq[nr] = vc
			nr++
			e.ids.ShrinkLast(m, 0)
		default: // m > 0 by two-hop membership
			cqIDs[nc] = vc
			cqNbrs[nc] = buf[:m]
			nc++
		}
	}

	e.ctr.NodesLN++ // generated, maximal or not
	exIDs := e.ids.Alloc(len(rs.prefix))
	exNbrs := e.hdrs.Alloc(len(rs.prefix))
	nx := 0
	for _, x := range rs.prefix {
		nb := g.NeighborsOfV(x)
		buf := e.ids.Alloc(min(len(lq), len(nb)))
		m := e.localIntersect(buf, lq, nb, ep)
		e.ids.ShrinkLast(len(buf), m)
		if e.collect {
			e.metrics.SetIntersections++
			e.metrics.AccessesInsideCG += int64(len(lq) + len(nb))
		}
		if m == len(lq) {
			return // x ∈ Γ(L') but x < vp: not maximal
		}
		if m > 0 {
			exIDs[nx] = x
			exNbrs[nx] = buf[:m]
			nx++
		}
	}

	if e.collect {
		e.metrics.observeNode(len(lq), nc)
	}
	e.emit(lq, rq[:nr])
	if nc == 0 || (e.skipSubtree != nil && e.skipSubtree(len(lq), nr, nc)) {
		return
	}
	if e.spawn != nil &&
		e.spawn(lq, rq[:nr], cqIDs[:nc], cqNbrs[:nc], exIDs[:nx], exNbrs[:nx], 1) {
		return // subtree handed to the parallel scheduler
	}
	t0, timed := e.enterSmallTimer(len(lq))
	e.searchLN(lq, rq[:nr], cqIDs[:nc], cqNbrs[:nc], exIDs[:nx], exNbrs[:nx], 1)
	e.exitSmallTimer(t0, timed)
}

// emit reports one maximal biclique.
func (e *engine) emit(L, R []int32) {
	e.ctr.Bicliques++
	if e.handler != nil {
		e.handler(L, R)
	}
	if e.sink != nil {
		e.sink.Emit(e.wid, e.curRoot, L, R)
	}
}

// rootDone reports that root vp's inline pass is finished — every path
// that advances a serial root loop past vp (including degree-0, pruned,
// and skip-filter shortcuts) must land here, because the frontier
// watermark treats an unreported root as still in flight. Stop paths
// return without reporting: an interrupted root stays below the
// watermark. A one-root claim reports through its cursor instead.
func (e *engine) rootDone(vp int32) {
	if e.frontier != nil {
		e.frontier.RootInlineDone(vp)
	}
}

// stampL marks every member of lq in the U-side stamp map under a fresh
// epoch, enabling O(1) membership tests for the node-generation loops.
func (e *engine) stampL(lq []int32) int32 {
	ep := e.stampEpoch()
	for _, u := range lq {
		e.uMark[u] = ep
	}
	return ep
}

// localIntersect writes lq ∩ nb into dst and returns the count, choosing
// the cheapest kernel: galloping binary search when lq is much shorter
// than nb, otherwise an O(|nb|) stamped-membership scan (ep must come from
// a prior stampL(lq)). Results are sorted because nb (and lq) are.
func (e *engine) localIntersect(dst, lq, nb []int32, ep int32) int {
	if len(lq)*gallopFactor <= len(nb) {
		return vset.IntersectGallop(dst, lq, nb)
	}
	n := 0
	for _, u := range nb {
		if e.uMark[u] == ep {
			dst[n] = u
			n++
		}
	}
	return n
}

// stampEpoch advances the stamp epoch shared by the u/v scratch maps.
func (e *engine) stampEpoch() int32 {
	e.epoch++
	if e.epoch < 0 { // wrapped after 2^31 bitmaps; reset marks
		for i := range e.uMark {
			e.uMark[i] = -1
		}
		for i := range e.vMark {
			e.vMark[i] = -1
		}
		e.epoch = 0
	}
	return e.epoch
}

// enterSmallTimer starts the Fig. 10d small-subtree timer when crossing the
// τ boundary; it returns a zero time when no timing should happen.
func (e *engine) enterSmallTimer(lenL int) (time.Time, bool) {
	if !e.collect || e.inSmall || lenL > e.tau {
		return time.Time{}, false
	}
	e.inSmall = true
	return time.Now(), true
}

func (e *engine) exitSmallTimer(t0 time.Time, started bool) {
	if started {
		e.metrics.SmallNodeTime += time.Since(t0)
		e.inSmall = false
	}
}
