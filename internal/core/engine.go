package core

import (
	"math"
	"time"

	"repro/internal/bitset"
	"repro/internal/graph"
	"repro/internal/obs"
	"repro/internal/tle"
	"repro/internal/vset"
)

// Fault-injection site names (Options.FaultHook); see internal/faultinject.
const (
	// SiteRoot fires once per root expanded, in every core root expansion.
	SiteRoot = "core/root"
	// SiteNode fires once per searchLN child-node expansion.
	SiteNode = "core/node"
	// SiteBitmap fires once per bitmap CG searched, after its build.
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

	// Durable-emission state (Options.Sink / Frontier; zero-valued and
	// branch-free on ordinary runs). wid is this engine's worker id (the
	// sink routing key); curRoot is the root vertex of the subtree
	// currently being enumerated — set by the root expansions and by the
	// parallel worker per task from the task's tag.
	wid      int
	sink     Sink
	frontier FrontierObserver
	curRoot  int32

	// dom is the run's LN root-pruning record, shared by every worker of
	// the run; nil on Baseline and AdaMBE-BIT runs, whose roots are
	// expanded by Algorithm 1 instead (see expandRoot).
	dom rootDom
	// rs is the root expansions' two-hop scratch, reused across roots.
	rs rootScratch

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
	// vVal is the CG-local index of v within the current global bitmap
	// (buildBitCGGlobal), or at an LN root first c[v] = |N(vp) ∩ N(v)|
	// (countTwoHop) and then v's write offset into the root's list slab
	// (fillRootLists) or into its bitmap's masks (fillRootMasks), valid
	// under the vMark epoch of the root's walk.
	vVal []int32

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

		wid:      wid,
		sink:     opts.Sink,
		frontier: opts.Frontier,
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
	e.rs.order = make([]uint64, bitset.WordsFor(g.NV()))
	// Per-worker stamp tables and the root candidate list: 4 bytes each,
	// three |U|-sized and two |V|-sized arrays; then the suffix ordering's
	// bit set, one bit per V vertex.
	e.chargeMem(int64(3*g.NU()+2*g.NV())*4 + int64(len(e.rs.order))*8)
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

// run executes a serial run from the root node (U, ∅, V): it expands
// every root rc hands out.
func (e *engine) run(rc *RootCursor) {
	start := time.Now()
	if e.collect {
		e.metrics.observeNode(len(e.allU), e.g.NV())
	}
	rc.Run(&e.stop, e.expandRoot)
	if e.collect {
		e.metrics.LargeNodeTime = time.Since(start) - e.metrics.SmallNodeTime
	}
}

// expandRoot is the engine's expansion of root vp, the one its root loop
// runs: the first-level node of v' and its subtree, generated by the LN
// root when the run keeps a domination record (AdaMBE-LN, AdaMBE and
// ParAdaMBE) and by Algorithm 1 otherwise (Baseline, AdaMBE-BIT).
func (e *engine) expandRoot(vp int32) {
	e.ctr.Root = int64(vp) + 1
	if e.dom != nil {
		e.expandLNRoot(vp)
	} else {
		e.expandGlobalRoot(vp)
	}
}

// rootScratch holds the reusable two-hop gathering buffers used by the
// root expansions. Processing root children by scanning all |V|
// candidates per child costs O(|V|²) set intersections; instead the
// candidate suffix and excluded prefix relevant to a root child v' are
// gathered from v's two-hop neighborhood ⋃_{u∈N(v')} N(u), the standard
// root optimization in MBE implementations. Every engine gathers this way (including Baseline and
// the competitor reimplementations), so no algorithm comparison is
// distorted. The LN engines also count each vertex's wedges as they
// gather (countTwoHop) and read their root node off the counts; Baseline
// and AdaMBE-BIT intersect with each gathered vertex's adjacency list,
// whose outside-CG part is what Fig. 5 counts.
type rootScratch struct {
	suffix []int32  // two-hop vertices with id > v' (future candidates)
	prefix []int32  // two-hop vertices with id < v' (already traversed)
	order  []uint64 // vset.SortIDs's bit set, one bit per V vertex
	held   int64    // bytes of suffix and prefix capacity charged so far
}

// sortSuffix orders the gathered suffix ascending, so candidate order
// matches the sequential semantics, and charges the memory gauge for the
// capacity the walk's appends added to the suffix and prefix.
func (e *engine) sortSuffix() {
	rs := &e.rs
	vset.SortIDs(rs.suffix, rs.order)
	if held := int64(cap(rs.suffix)+cap(rs.prefix)) * 4; held > rs.held {
		e.chargeMem(held - rs.held)
		rs.held = held
	}
}

// gatherTwoHop fills e.rs with the distinct two-hop neighbors of vp,
// split around vp, using the engine's epoch stamps, and sorts the suffix.
func (e *engine) gatherTwoHop(vp int32, lq []int32) {
	rs := &e.rs
	epoch := e.stampEpoch()
	rs.suffix = rs.suffix[:0]
	rs.prefix = rs.prefix[:0]
	for _, u := range lq {
		for _, w := range e.g.NeighborsOfU(u) {
			if w == vp || e.vMark[w] == epoch {
				continue
			}
			e.vMark[w] = epoch
			if w > vp {
				rs.suffix = append(rs.suffix, w)
			} else {
				rs.prefix = append(rs.prefix, w)
			}
		}
	}
	e.sortSuffix()
}

// skipCount is the count of a vertex root vp builds no list or mask for:
// vp itself and each vertex the root skips (countTwoHop), and the members
// of R' (fillRootLists, fillRootMasks). Later wedges add at most
// |N(vp)| − 1 < 2^31 to it, so it stays negative.
const skipCount = math.MinInt32

// countTwoHop walks every wedge vp–u–w with u ∈ lq = N(vp) once and fills
// e.rs like gatherTwoHop, leaving in e.vVal, under a fresh vMark epoch, the
// count c[w] = |N(vp) ∩ N(w)| of every vertex it lists (the prefix in
// first-visit order). It reads w's domination record once, at w's first
// visit: vp and each w recorded as dominated below vp get a negative
// count and are not listed. It returns the number of wedges walked.
func (e *engine) countTwoHop(vp int32, lq []int32) (wedges int) {
	rs := &e.rs
	epoch := e.stampEpoch()
	rs.suffix = rs.suffix[:0]
	rs.prefix = rs.prefix[:0]
	mark, cnt := e.vMark, e.vVal
	for _, u := range lq {
		nbrs := e.g.NeighborsOfU(u)
		wedges += len(nbrs)
		for _, w := range nbrs {
			if mark[w] == epoch {
				cnt[w]++
				continue
			}
			mark[w] = epoch
			switch {
			case w == vp || e.dom.dominated(w, vp):
				cnt[w] = skipCount
			case w > vp:
				cnt[w] = 1
				rs.suffix = append(rs.suffix, w)
			default:
				cnt[w] = 1
				rs.prefix = append(rs.prefix, w)
			}
		}
	}
	e.sortSuffix()
	return wedges
}

// fillRootLists builds root vp's local neighborhoods N(w) ∩ lq for the
// candidates cand and the excluded vertices excl from the counts
// countTwoHop left in e.vVal: it lays the lists out back to back in one
// slab block by prefix sum, turns each count into its list's write
// offset, and fills them with a second walk over lq in ascending order,
// so every list comes out sorted. R' members (rIDs) get no list; the
// vertices the first walk skipped keep their negative count, so the
// second walk reuses its decisions without reading the domination record.
func (e *engine) fillRootLists(lq, rIDs, cand, excl []int32) (candNbrs, exclNbrs [][]int32) {
	cnt := e.vVal
	total := 0
	for _, w := range cand {
		total += int(cnt[w])
	}
	for _, w := range excl {
		total += int(cnt[w])
	}
	flat := e.ids.Alloc(total)
	candNbrs = e.hdrs.Alloc(len(cand))
	exclNbrs = e.hdrs.Alloc(len(excl))
	off := int32(0)
	place := func(ids []int32, nbrs [][]int32) {
		for k, w := range ids {
			c := cnt[w]
			nbrs[k] = flat[off : off+c : off+c]
			cnt[w] = off
			off += c
		}
	}
	place(cand, candNbrs)
	place(excl, exclNbrs)
	for _, w := range rIDs {
		cnt[w] = skipCount
	}
	for _, u := range lq {
		for _, w := range e.g.NeighborsOfU(u) {
			if o := cnt[w]; o >= 0 {
				flat[o] = u
				cnt[w] = o + 1
			}
		}
	}
	return candNbrs, exclNbrs
}

// fillRootMasks builds root vp's bitmap CG in the pooled e.cg from the
// counts countTwoHop left in e.vVal: the CG buildBitCGFromLN would build
// from fillRootLists's lists, without the lists. L* is lq; candidate k
// gets CG index k and excluded vertex j index len(cand)+j, and each count
// becomes its mask's word offset. A second walk over lq in ascending order
// then sets bit pos(u) in the mask of every indexed w ∈ N(u), so w's mask
// is N(w) ∩ lq as bits. R' members (rIDs) and the vertices the first walk
// skipped get no index, and the walk reads no domination record.
func (e *engine) fillRootMasks(lq, rIDs, cand, excl []int32) *bitCG {
	cnt := e.vVal
	width := e.maskWidth(len(lq))
	cg := &e.cg
	cg.reset(width, lq, len(cand)+len(excl))
	cg.vids = append(append(cg.vids, cand...), excl...)
	cg.nCand = len(cand)
	for k, w := range cg.vids {
		cnt[w] = int32(k * width)
	}
	for _, w := range rIDs {
		cnt[w] = skipCount
	}
	masks := cg.masks
	for pos, u := range lq {
		word, bit := int32(pos>>6), uint64(1)<<(uint(pos)&63)
		for _, w := range e.g.NeighborsOfU(u) {
			if o := cnt[w]; o >= 0 {
				masks[o+word] |= bit
			}
		}
	}
	return cg
}

// expandGlobalRoot is Algorithm 1's root expansion (Baseline /
// AdaMBE-BIT): it generates root vp's first-level node from v's two-hop
// neighborhood and recurses with searchGlobal, unless vp is skipped
// (degree 0 or the SkipChild filter) or the run is stopping.
func (e *engine) expandGlobalRoot(vp int32) {
	g := e.g
	if g.DegV(vp) == 0 || e.stop.Hit() {
		return
	}
	e.curRoot = vp
	e.faultStep(SiteRoot)
	lq := g.NeighborsOfV(vp) // L' = U ∩ N(v')
	if e.skipChild != nil && e.skipChild(len(lq)) {
		return
	}
	e.gatherTwoHop(vp, lq)
	rs := &e.rs

	mark := e.ids.Mark()
	defer e.ids.Release(mark)
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
	if e.gammaSize(lq) != nr {
		return
	}
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

// expandLNRoot generates root vp's first-level node and searches its
// subtree, unless vp is skipped (degree 0, dominated, or the SkipChild
// filter) or the run is stopping. The node is read off the wedge counts
// c[w] = |N(vp) ∩ N(w)| of countTwoHop (docs/CORRECTNESS.md §3): w joins
// R' when c[w] = |N(vp)|, vp dominates w when c[w] = deg(w), and a prefix
// vertex with c[w] = |N(vp)| makes the root non-maximal, so a
// non-maximal root costs one walk and builds nothing. A maximal root with
// candidates walks its wedges a second time: under AdaMBE with
// |N(vp)| ≤ τ (Algorithm 2 line 4) into its bitmap CG (promoteRoot),
// otherwise into the lists searchLN takes.
func (e *engine) expandLNRoot(vp int32) {
	g := e.g
	if g.DegV(vp) == 0 || e.dom.dominated(vp, vp) || e.stop.Hit() {
		return
	}
	e.curRoot = vp
	e.faultStep(SiteRoot)
	lq := g.NeighborsOfV(vp)
	if e.skipChild != nil && e.skipChild(len(lq)) {
		return
	}
	wedges := e.countTwoHop(vp, lq)
	rs := &e.rs
	cnt := e.vVal
	full := int32(len(lq))
	if e.collect {
		e.metrics.AccessesInsideCG += int64(wedges)
	}

	idMark := e.ids.Mark()
	hdrMark := e.hdrs.Mark()
	defer e.ids.Release(idMark)
	defer e.hdrs.Release(hdrMark)
	rq := e.ids.Alloc(1 + len(rs.suffix))
	rq[0] = vp
	nr := 1
	cqIDs := e.ids.Alloc(len(rs.suffix))
	nc := 0
	for _, vc := range rs.suffix {
		m := cnt[vc]
		if m == int32(g.DegV(vc)) {
			e.dom.record(vc, vp)
			if e.collect {
				e.metrics.NodesPruned++
			}
		}
		if m == full {
			rq[nr] = vc
			nr++
		} else { // m > 0 by two-hop membership
			cqIDs[nc] = vc
			nc++
		}
	}

	e.ctr.NodesLN++ // generated, maximal or not
	maximal := true
	checked := 0
	for _, x := range rs.prefix {
		checked++
		if cnt[x] == full { // x ∈ Γ(L') but x < vp: not maximal
			maximal = false
			break
		}
	}
	if e.collect {
		// One set intersection per vertex classified, as when each was
		// intersected with N(vp): the suffix, then the prefix up to the
		// first violator.
		e.metrics.SetIntersections += int64(len(rs.suffix) + checked)
	}
	if !maximal {
		return
	}

	if e.collect {
		e.metrics.observeNode(len(lq), nc)
	}
	e.emit(lq, rq[:nr])
	if nc == 0 {
		return
	}
	if e.collect {
		e.metrics.AccessesInsideCG += int64(wedges) // the second walk
	}
	// Every prefix vertex is live (c ≥ 1), so the excluded set is the
	// whole prefix, in first-visit order.
	if e.variant == Ada && len(lq) <= e.tau {
		e.promoteRoot(lq, rq[:nr], cqIDs[:nc], rs.prefix)
		return
	}
	cqNbrs, exNbrs := e.fillRootLists(lq, rq[1:nr], cqIDs[:nc], rs.prefix)
	if e.skipSubtree != nil && e.skipSubtree(len(lq), nr, nc) {
		return
	}
	if e.spawn != nil && e.spawn(lq, rq[:nr], cqIDs[:nc], cqNbrs, rs.prefix, exNbrs, 1) {
		return // subtree handed to the parallel scheduler
	}
	t0, timed := e.enterSmallTimer(len(lq))
	e.searchLN(lq, rq[:nr], cqIDs[:nc], cqNbrs, rs.prefix, exNbrs, 1)
	e.exitSmallTimer(t0, timed)
}

// promoteRoot switches a maximal LN root with candidates and |L| ≤ τ to
// the bitwise procedure, as searchLN switches any such node, but fills its
// bitmap CG straight from the wedge counts (fillRootMasks). The root is
// not offered to the parallel scheduler: its bitmap subtree is never split
// further. The bitmap is built before SkipSubtree is consulted, as the
// lists are, and counted as built, fault step included, only when its
// subtree is searched.
func (e *engine) promoteRoot(lq, R, cand, excl []int32) {
	t0, timed := e.enterSmallTimer(len(lq))
	defer e.exitSmallTimer(t0, timed)
	cg := e.fillRootMasks(lq, R[1:], cand, excl)
	if e.skipSubtree != nil && e.skipSubtree(len(lq), len(R), len(cand)) {
		return
	}
	e.searchPromoted(cg, R)
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
