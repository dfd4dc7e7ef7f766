package core

import (
	"math"
	"sync"
	"sync/atomic"
)

// noDominator marks a V vertex no root has yet been found to dominate.
const noDominator = math.MaxInt32

// rootCursor is a run's LN root cursor and its root-pruning record. Every
// LN root loop of the run takes its roots from it: a serial run claims the
// whole range [StartRoot, EndRoot) at once, and each ParAdaMBE root task
// claims one root at a time, in ascending order, until none are left.
//
// A one-root claim reports to the frontier as a task of its own: under the
// cursor's lock, claiming root r calls TaskSpawned(r) and then
// RootInlineDone(r), and release ends it with TaskDone(r) or, when the run
// is stopping, TaskDiscarded(r). Claims are taken in ascending order under
// that lock, so the watermark never passes a claimed root whose inline
// pass or spawned subtrees are unfinished. A run-wide claim leaves the
// root loop to report each root as it passes it (engine.rootDone).
type rootCursor struct {
	mu       sync.Mutex
	next     int32 // first unclaimed root
	end      int32 // exclusive root limit
	perRoot  bool  // one root per claim (ParAdaMBE root tasks)
	frontier FrontierObserver

	// dom is the run-wide root-pruning record: dom[w] is the smallest
	// root z found so far with N(w) ⊆ N(z), or noDominator. Root vp skips
	// w only when dom[w] < vp; a record at or above vp (written by a later
	// root that got there first under ParAdaMBE) says nothing about vp's
	// subtree. See docs/CORRECTNESS.md §6.
	dom []atomic.Int32
}

// newRootCursor makes the cursor of one run over roots [start, end) of a
// graph with nv V vertices. charge bills its 4 B-per-vertex record to the
// run's memory gauge, once per run.
func newRootCursor(start, end int32, nv int, perRoot bool, fr FrontierObserver, charge func(int64)) *rootCursor {
	rc := &rootCursor{next: start, end: end, perRoot: perRoot, frontier: fr}
	rc.dom = make([]atomic.Int32, nv)
	for i := range rc.dom {
		rc.dom[i].Store(noDominator)
	}
	charge(int64(nv) * 4)
	return rc
}

// claim takes the next roots [lo, hi); lo == hi once none are left.
func (rc *rootCursor) claim() (lo, hi int32) {
	rc.mu.Lock()
	defer rc.mu.Unlock()
	lo, hi = rc.next, rc.end
	if lo >= hi {
		return lo, lo
	}
	if rc.perRoot {
		hi = lo + 1
		if rc.frontier != nil {
			rc.frontier.TaskSpawned(lo)
			rc.frontier.RootInlineDone(lo)
		}
	}
	rc.next = hi
	return lo, hi
}

// release ends the one-root claim of r; stopped says the run is stopping
// and r's subtree may be incomplete. A run-wide claim is never released.
func (rc *rootCursor) release(r int32, stopped bool) {
	switch {
	case rc.frontier == nil:
	case stopped:
		rc.frontier.TaskDiscarded(r)
	default:
		rc.frontier.TaskDone(r)
	}
}

// dominated reports whether root vp may skip w: some root below vp is
// recorded to dominate it.
func (rc *rootCursor) dominated(w, vp int32) bool { return rc.dom[w].Load() < vp }

// recordDominator notes N(w) ⊆ N(z), keeping the smallest such root.
func (rc *rootCursor) recordDominator(w, z int32) {
	d := &rc.dom[w]
	for {
		cur := d.Load()
		if z >= cur || d.CompareAndSwap(cur, z) {
			return
		}
	}
}
