package baselines

import (
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/sched"
	"repro/internal/tle"
)

// runParMBE is the ParMBE-style parallel competitor: the graph is held in a
// hash-table representation (§II-B — "only utilized in ParMBE") and the
// first-level subtrees of the enumeration tree are distributed over the
// same work-stealing pool ParAdaMBE uses, one task per root candidate
// seeded round-robin up front; a worker that exhausts its share steals the
// oldest tasks of its siblings. There is no intra-subtree splitting, which
// is why its scalability trails ParAdaMBE on skewed datasets (Fig. 14).
//
// Lifecycle: each task runs under panic recovery (tle.Shared.Recover). A
// panicking task trips the run-wide stop state; the worker that caught it
// keeps draining the pool (tasks after a trip are skipped by the boundary
// poll) so every goroutine exits. The first panic becomes the run's error;
// per-worker counts are merged regardless, so partial results stay
// monotone.
func runParMBE(g *graph.Bipartite, opts core.Options, shared *tle.Shared) (core.Result, error) {
	threads := opts.Threads
	if threads <= 0 {
		threads = runtime.GOMAXPROCS(0)
	}

	// Hash-table neighbor sets for every V vertex: the representation's
	// higher memory and random-access cost are part of the profile. The
	// whole representation counts against the soft budget up front
	// (~16 bytes per entry plus fixed map overhead — the same order the
	// paper's Fig. 8b memory column shows dominating ParMBE).
	rep := make([]map[int32]struct{}, g.NV())
	cand := make([]int32, 0, g.NV())
	var repBytes int64
	for v := int32(0); v < int32(g.NV()); v++ {
		if g.DegV(v) == 0 {
			continue
		}
		set := make(map[int32]struct{}, g.DegV(v))
		for _, u := range g.NeighborsOfV(v) {
			set[u] = struct{}{}
		}
		rep[v] = set
		cand = append(cand, v)
		repBytes += 48 + 16*int64(g.DegV(v))
	}
	shared.AddMem(repBytes)
	opts.OnBiclique = serialized(opts.OnBiclique)

	var total atomic.Int64
	pool := sched.NewPool[int32](threads, sched.SeedCapacity(len(cand), threads, 1))
	pool.Seed(cand...)
	var wg sync.WaitGroup

	// runTask executes one first-level subtree with panic isolation so the
	// worker survives to drain the pool.
	runTask := func(e *parMBEEngine, vp int32) {
		defer pool.TaskDone()
		defer shared.Recover("ParMBE worker")
		// Forced poll at the task boundary: stops before any work on a
		// pre-expired deadline or canceled context, observes sibling trips,
		// and then drains the pool without work.
		if e.stop.Poll() || e.stop.Fault(SiteParMBETask) {
			return
		}
		e.rootTask(vp)
	}

	for w := 0; w < threads; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			e := &parMBEEngine{rep: rep}
			e.init(g, &opts, shared, 0)
			for {
				vp, ok := pool.Next(w)
				if !ok {
					break
				}
				runTask(e, vp)
			}
			total.Add(e.count)
		}(w)
	}
	wg.Wait()

	reason, err := shared.Outcome()
	return core.Result{Count: total.Load(), StopReason: reason}, err
}

type parMBEEngine struct {
	worker
	rep []map[int32]struct{}
}

// intersectHash writes {u ∈ L : u ∈ N(v)} into dst via hash lookups (the
// ParMBE set-intersection style) and returns the count. dst needs
// capacity ≥ len(L); output stays sorted because L is.
func (e *parMBEEngine) intersectHash(dst, L []int32, v int32) int {
	set := e.rep[v]
	n := 0
	for _, u := range L {
		if _, ok := set[u]; ok {
			dst[n] = u
			n++
		}
	}
	return n
}

// rootTask expands the first-level node generated by vp, with the
// already-traversed two-hop prefix as its excluded set — exactly the state
// the serial loop would have when reaching vp, so the union over tasks
// enumerates the same tree.
func (e *parMBEEngine) rootTask(vp int32) {
	mark := e.ids.Mark()
	defer e.ids.Release(mark)
	lq := append([]int32(nil), e.g.NeighborsOfV(vp)...) // L' = U ∩ N(v')
	e.th.gather(vp, lq)

	maximal := true
	qNew := e.ids.Alloc(len(e.th.prefix))
	nq := 0
	buf := e.ids.Alloc(len(lq))
	for _, x := range e.th.prefix {
		m := e.intersectHash(buf, lq, x)
		if m == len(lq) {
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
	rq := e.ids.Alloc(1 + len(e.th.suffix))
	rq[0] = vp
	nr := 1
	pq := e.ids.Alloc(len(e.th.suffix))
	np := 0
	for _, vc := range e.th.suffix {
		m := e.intersectHash(buf, lq, vc)
		if m == len(lq) {
			rq[nr] = vc
			nr++
		} else { // m > 0 by two-hop membership
			pq[np] = vc
			np++
		}
	}
	e.emit(lq, rq[:nr])
	if np > 0 {
		e.search(lq, rq[:nr], pq[:np], qNew[:nq])
	}
}

// search is the per-task serial recursion, hash-representation edition.
func (e *parMBEEngine) search(L, R, P, Q []int32) {
	if e.stop.Stopped() {
		return
	}
	for i := 0; i < len(P); i++ {
		if e.stop.Hit() {
			return
		}
		e.stop.Fault(SiteParMBETask)
		vp := P[i]
		mark := e.ids.Mark()

		lq := e.ids.Alloc(len(L))
		n := e.intersectHash(lq, L, vp)
		e.ids.ShrinkLast(len(lq), n)
		lq = lq[:n]
		if n == 0 {
			e.ids.Release(mark)
			continue
		}

		maximal := true
		qNew := e.ids.Alloc(len(Q) + i)
		nq := 0
		buf := e.ids.Alloc(n)
		checkOne := func(x int32) bool {
			m := e.intersectHash(buf, lq, x)
			if m == len(lq) {
				return false
			}
			if m > 0 {
				qNew[nq] = x
				nq++
			}
			return true
		}
		for k := 0; k < len(Q) && maximal; k++ {
			maximal = checkOne(Q[k])
		}
		for k := 0; k < i && maximal; k++ {
			maximal = checkOne(P[k])
		}

		if maximal {
			rem := len(P) - i - 1
			rq := e.ids.Alloc(len(R) + 1 + rem)
			nr := copy(rq, R)
			rq[nr] = vp
			nr++
			pq := e.ids.Alloc(rem)
			np := 0
			for j := i + 1; j < len(P); j++ {
				vc := P[j]
				m := e.intersectHash(buf, lq, vc)
				if m == len(lq) {
					rq[nr] = vc
					nr++
				} else if m > 0 {
					pq[np] = vc
					np++
				}
			}
			e.emit(lq, rq[:nr])
			if np > 0 {
				e.search(lq, rq[:nr], pq[:np], qNew[:nq])
			}
		}
		e.ids.Release(mark)
	}
}
