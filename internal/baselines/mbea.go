package baselines

import (
	"sort"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/tle"
	"repro/internal/vset"
)

// mbeaConfig selects the per-algorithm twists layered on the shared
// candidate-set backtracking skeleton (the common core of FMBE, PMBE and
// ooMBEA). All of them work on the original adjacency lists — none keeps
// the computational-subgraph caches that define AdaMBE.
type mbeaConfig struct {
	// sortPerNode re-sorts the candidate suffix of every node by ascending
	// local degree |N(v) ∩ L| before expansion (PMBE's per-node ordering).
	sortPerNode bool
	// skipDuplicateNodes skips a pivot whose generated L equals the
	// previous pivot's L at the same node (PMBE's containment pruning for
	// duplicate nodes; always sound — such a node fails the maximality
	// check anyway).
	skipDuplicateNodes bool
}

// mbeaEngine is the shared serial competitor skeleton: Algorithm-1-style
// backtracking with an explicit excluded set Q for the maximality check,
// all set intersections against global adjacency.
type mbeaEngine struct {
	g       *graph.Bipartite
	cfg     mbeaConfig
	handler core.Handler
	stop    tle.Stopper
	hook    func(site string) error
	count   int64
	ids     vset.Slab[int32]
}

// faultStep fires the injection hook at site; a returned error is treated
// as a failed allocation and degrades the run like a blown memory budget.
func (e *mbeaEngine) faultStep(site string) {
	if e.hook == nil {
		return
	}
	if err := e.hook(site); err != nil {
		e.stop.Fail(tle.MemoryExceeded)
	}
}

// runMBEA drives the serial skeleton under panic isolation: a panic
// anywhere in the recursion or a user handler is recovered into an error
// wrapping core.ErrPanic, with the count gathered so far still reported.
func runMBEA(g *graph.Bipartite, cfg mbeaConfig, opts core.Options, shared *tle.Shared) (res core.Result, err error) {
	e := &mbeaEngine{g: g, cfg: cfg, handler: opts.OnBiclique, hook: opts.FaultHook}
	e.stop = tle.NewStopper(shared, opts.StopConfig())
	e.ids.OnGrow = e.stop.AddMem
	e.stop.AddMem(twoHopBytes(g)) // two-hop mark table and ordering bit set
	defer func() {
		res = core.Result{Count: e.count, StopReason: core.StopReasonOf(e.stop.Reason())}
		if r := recover(); r != nil {
			res.StopReason = core.StopPanic
			err = core.PanicError("serial baseline", r)
		}
	}()
	th := newTwoHop(g)
	for vp := int32(0); vp < int32(g.NV()); vp++ {
		if g.DegV(vp) == 0 {
			continue
		}
		if e.stop.Hit() {
			break
		}
		e.faultStep(SiteSerialNode)
		lq := g.NeighborsOfV(vp) // L' = U ∩ N(v')
		th.gather(vp, lq)

		// Maximality of the first-level node against the traversed prefix.
		maximal := true
		mark := e.ids.Mark()
		qNew := e.ids.Alloc(len(th.prefix))
		nq := 0
		for _, x := range th.prefix {
			m := vset.IntersectLen(lq, g.NeighborsOfV(x))
			if m == len(lq) {
				maximal = false
				break
			}
			if m > 0 {
				qNew[nq] = x
				nq++
			}
		}
		if maximal {
			rq := e.ids.Alloc(1 + len(th.suffix))
			rq[0] = vp
			nr := 1
			pq := e.ids.Alloc(len(th.suffix))
			np := 0
			for _, vc := range th.suffix {
				m := vset.IntersectLen(lq, g.NeighborsOfV(vc))
				if m == len(lq) {
					rq[nr] = vc
					nr++
				} else { // m > 0 by two-hop membership
					pq[np] = vc
					np++
				}
			}
			e.count++
			if e.handler != nil {
				e.handler(lq, rq[:nr])
			}
			if np > 0 {
				e.search(lq, rq[:nr], pq[:np], qNew[:nq])
			}
		}
		e.ids.Release(mark)
	}
	return res, nil
}

// search processes node (L, R, P, Q): P candidates, Q excluded. Both hold
// V ids; every vertex in Q has a non-empty intersection with L.
func (e *mbeaEngine) search(L, R, P, Q []int32) {
	if e.stop.Stopped() {
		return
	}
	g := e.g
	if e.cfg.sortPerNode && len(P) > 1 {
		// PMBE-style: ascending local degree. Computed fresh per node
		// (this recomputation is part of the algorithm's cost profile).
		deg := make(map[int32]int, len(P))
		for _, v := range P {
			deg[v] = vset.IntersectLen(L, g.NeighborsOfV(v))
		}
		sort.SliceStable(P, func(i, j int) bool { return deg[P[i]] < deg[P[j]] })
	}

	var prevL []int32
	for i := 0; i < len(P); i++ {
		if e.stop.Hit() {
			return
		}
		e.faultStep(SiteSerialNode)
		vp := P[i]
		mark := e.ids.Mark()

		nvp := g.NeighborsOfV(vp)
		lq := e.ids.Alloc(min(len(L), len(nvp)))
		n := vset.IntersectInto(lq, L, nvp)
		e.ids.ShrinkLast(len(lq), n)
		lq = lq[:n]
		if n == 0 { // root-level candidate with no surviving neighbors
			e.ids.Release(mark)
			continue
		}
		if e.cfg.skipDuplicateNodes && prevL != nil && vset.Equal(lq, prevL) {
			// Identical L as the previous pivot: the previous pivot is now
			// excluded and fully connected to lq, so this node would fail
			// the maximality check. Skip the generation work entirely;
			// vp still joins the excluded prefix for later pivots.
			e.ids.Release(mark)
			continue
		}

		// Maximality against Q ∪ already-processed prefix of P, building
		// the child's Q as we go.
		maximal := true
		qCap := len(Q) + i
		qNew := e.ids.Alloc(qCap)
		nq := 0
		checkOne := func(x int32) bool {
			m := vset.IntersectLen(lq, g.NeighborsOfV(x))
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
				m := vset.IntersectLen(lq, g.NeighborsOfV(vc))
				if m == len(lq) {
					rq[nr] = vc
					nr++
				} else if m > 0 {
					pq[np] = vc
					np++
				}
			}
			e.count++
			if e.handler != nil {
				e.handler(lq, rq[:nr])
			}
			if np > 0 {
				e.search(lq, rq[:nr], pq[:np], qNew[:nq])
			}
		}
		if e.cfg.skipDuplicateNodes {
			// lq dies at the Release below; retain a copy for comparison.
			prevL = append(prevL[:0], lq...)
		}
		e.ids.Release(mark)
	}
}
