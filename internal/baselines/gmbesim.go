package baselines

import (
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/bitset"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/tle"
)

// gmbeOversubscription is how many virtual warps run per requested thread.
// GMBE launches hundreds of thousands of GPU threads; the simulation
// oversubscribes goroutines so small first-level subtrees keep every core
// busy, which is exactly the regime where GMBE shines in Fig. 8a.
const gmbeOversubscription = 16

// runGMBESim simulates the authors' GPU algorithm (GMBE, SC'23) on the CPU
// — the DESIGN.md substitution for the A100. Faithful elements:
//
//   - two-level decomposition: each first-level subtree is one task,
//     processed by a pool of "virtual warps";
//   - membership tests against L via a per-warp |U|-bit bitmap (GMBE's
//     bitmap-over-L representation);
//   - per-warp worst-case workspace pre-allocated up front — the reason
//     GMBE's memory dwarfs every CPU algorithm in Fig. 8b.
//
// Not simulated: GPU memory bandwidth and warp-level SIMD; the simulation
// makes no absolute-speed claims.
//
// Lifecycle: each root task runs under panic recovery (tle.Shared.Recover);
// a panic trips the run-wide stop state so every warp breaks out of the
// work loop, and the first panic is reported as the run's error with
// counts still merged.
func runGMBESim(g *graph.Bipartite, opts core.Options, shared *tle.Shared) (core.Result, error) {
	threads := opts.Threads
	if threads <= 0 {
		threads = runtime.GOMAXPROCS(0)
	}
	warps := threads * gmbeOversubscription
	opts.OnBiclique = serialized(opts.OnBiclique)

	cand := make([]int32, 0, g.NV())
	for v := int32(0); v < int32(g.NV()); v++ {
		if g.DegV(v) > 0 {
			cand = append(cand, v)
		}
	}

	var total atomic.Int64
	var next atomic.Int64
	var wg sync.WaitGroup

	runTask := func(e *gmbeWarp, vp int32) {
		defer shared.Recover("GMBE warp")
		if !e.stop.Fault(SiteGMBETask) {
			e.rootTask(vp)
		}
	}

	for w := 0; w < warps; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			e := newGMBEWarp(g, &opts, shared)
			for {
				i := int(next.Add(1) - 1)
				// Forced poll at the task boundary: a pre-expired deadline
				// or canceled context stops the warp before any work, and a
				// sibling trip (panic, budget) ends the loop promptly.
				if i >= len(cand) || e.stop.Poll() {
					break
				}
				runTask(e, cand[i])
			}
			total.Add(e.count)
		}()
	}
	wg.Wait()

	reason, err := shared.Outcome()
	return core.Result{Count: total.Load(), StopReason: reason}, err
}

// gmbeWarp is one virtual warp with its pre-allocated workspace.
type gmbeWarp struct {
	worker
	lBits *bitset.Set // |U|-bit membership bitmap for the current L
}

func newGMBEWarp(g *graph.Bipartite, opts *core.Options, shared *tle.Shared) *gmbeWarp {
	w := &gmbeWarp{lBits: bitset.New(g.NU())}
	// The bitmap and the two-hop tables are part of each warp's
	// pre-allocated footprint; slab reservations below are charged through
	// OnGrow.
	w.init(g, opts, shared, int64(g.NU())/8)
	// GMBE pre-allocates each thread's worst-case node storage up front;
	// mirror that by reserving slab space for the widest possible node
	// (candidates + excluded + R all bounded by |V|, L by Δ(V)).
	maxDeg := 0
	for v := int32(0); v < int32(g.NV()); v++ {
		if d := g.DegV(v); d > maxDeg {
			maxDeg = d
		}
	}
	reserve := 4*g.NV() + 2*maxDeg
	m := w.ids.Mark()
	_ = w.ids.Alloc(reserve)
	w.ids.Release(m)
	return w
}

// intersectBitmap writes {u ∈ N(v) : u ∈ L} into dst using the L bitmap
// (GMBE's membership-test intersection; cost O(deg(v)), independent of
// |L|). Output is sorted because N(v) is.
func (e *gmbeWarp) intersectBitmap(dst []int32, v int32) int {
	n := 0
	for _, u := range e.g.NeighborsOfV(v) {
		if e.lBits.Contains(int(u)) {
			dst[n] = u
			n++
		}
	}
	return n
}

func (e *gmbeWarp) rootTask(vp int32) {
	mark := e.ids.Mark()
	defer e.ids.Release(mark)
	lq := e.ids.Alloc(e.g.DegV(vp))
	copy(lq, e.g.NeighborsOfV(vp))

	// Candidates and excluded prefix come from the two-hop neighborhood.
	e.th.gather(vp, lq)
	suffix := e.ids.Alloc(len(e.th.suffix))
	copy(suffix, e.th.suffix)
	prefix := e.ids.Alloc(len(e.th.prefix))
	copy(prefix, e.th.prefix)
	e.search(lq, nil, suffix, prefix, []int32{vp})
}

// search expands one node. L is the current left set; pending holds the
// vertex whose biclique this node represents (R ∪ pending after full
// classification). P/Q semantics as elsewhere; all intersections use the
// L-membership bitmap.
func (e *gmbeWarp) search(L, R, P, Q []int32, pending []int32) {
	if e.stop.Stopped() {
		return
	}
	// Load L into the bitmap for this node's classifications.
	e.lBits.AddSlice(L)
	defer e.lBits.ClearSlice(L)

	maximal := true
	mark := e.ids.Mark()
	defer e.ids.Release(mark)
	qNew := e.ids.Alloc(len(Q))
	nq := 0
	buf := e.ids.Alloc(len(L))
	for _, x := range Q {
		m := e.intersectBitmap(buf, x)
		if m == len(L) {
			maximal = false
			break
		}
		if m > 0 {
			qNew[nq] = x
			nq++
		}
	}
	if !maximal {
		return
	}
	rq := e.ids.Alloc(len(R) + len(pending) + len(P))
	nr := copy(rq, R)
	nr += copy(rq[nr:], pending)
	pq := e.ids.Alloc(len(P))
	np := 0
	for _, vc := range P {
		m := e.intersectBitmap(buf, vc)
		if m == len(L) {
			rq[nr] = vc
			nr++
		} else if m > 0 {
			pq[np] = vc
			np++
		}
	}
	e.emit(L, rq[:nr])

	// Expand children: traverse each remaining candidate.
	for i := 0; i < np; i++ {
		if e.stop.Hit() {
			return
		}
		e.stop.Fault(SiteGMBETask)
		vp := pq[i]
		cmark := e.ids.Mark()
		lq := e.ids.Alloc(len(L))
		n := e.intersectBitmap(lq, vp)
		e.ids.ShrinkLast(len(lq), n)
		lq = lq[:n] // never empty: vp was classified partial

		// Child excluded set: surviving Q plus this node's traversed
		// prefix of pq.
		qChild := e.ids.Alloc(nq + i)
		k := copy(qChild, qNew[:nq])
		k += copy(qChild[k:], pq[:i])

		e.lBits.ClearSlice(L) // child loads its own L view
		e.search(lq, rq[:nr], pq[i+1:np], qChild[:k], []int32{vp})
		e.lBits.AddSlice(L)
		e.ids.Release(cmark)
	}
}
