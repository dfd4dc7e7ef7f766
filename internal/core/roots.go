package core

import (
	"math"
	"sync"
	"sync/atomic"

	"repro/internal/tle"
)

// RootCursor is a run's root loop, the only one in the repository: it
// hands out the roots of [StartRoot, EndRoot) one at a time, in ascending
// order, to every loop that runs it — the one loop of a serial run, each
// ParAdaMBE root task, and BBK's. The engines differ only in how they
// expand a root (the paper's Algorithms 1 and 2 generate the first-level
// node of v' differently), so that is all they pass to Run.
//
// Handing out root r calls Frontier.Begin(r) under the cursor's lock, so
// roots begin in ascending order. Root r then ends with End(r, done),
// done meaning its expansion returned and a forced Poll saw no stop. A
// stop or a panic ends the root not done, and the frontier freezes below
// it. The watermark therefore never passes a root whose expansion, or
// any subtree detached from it, is unfinished.
type RootCursor struct {
	mu       sync.Mutex
	next     int32 // first root not yet handed out
	end      int32 // exclusive root limit
	frontier FrontierObserver
}

// NewRootCursor makes the cursor of one run of opts over a graph with nv
// V vertices: roots [StartRoot, EndRoot), EndRoot 0 meaning nv, reported
// to opts.Frontier.
func NewRootCursor(opts *Options, nv int) *RootCursor {
	return &RootCursor{next: opts.StartRoot, end: rootFrontierEnd(*opts, nv), frontier: opts.Frontier}
}

// Run expands the roots it takes from the cursor, one at a time, until
// none are left or one ends not done. stop is the calling worker's.
func (rc *RootCursor) Run(stop *tle.Stopper, expand func(root int32)) {
	for {
		r, ok := rc.begin()
		if !ok || !rc.runRoot(r, stop, expand) {
			return
		}
	}
}

// begin hands out the next root and reports it to the frontier.
func (rc *RootCursor) begin() (int32, bool) {
	rc.mu.Lock()
	defer rc.mu.Unlock()
	r := rc.next
	if r >= rc.end {
		return r, false
	}
	rc.next++
	if rc.frontier != nil {
		rc.frontier.Begin(r)
	}
	return r, true
}

// runRoot runs root r's expansion and ends the root. The forced Poll sees
// sibling trips the local stopper has not observed yet: ending a root
// that did complete as not done is safe, the converse would corrupt
// resume. A panic unwinds through the deferred End with done still false.
func (rc *RootCursor) runRoot(r int32, stop *tle.Stopper, expand func(int32)) (done bool) {
	if rc.frontier != nil {
		defer func() { rc.frontier.End(r, done) }()
	}
	expand(r)
	done = !stop.Poll()
	return done
}

// noDominator marks a V vertex no root has yet been found to dominate.
const noDominator = math.MaxInt32

// rootDom is an LN run's root-pruning record, shared by every worker:
// rootDom[w] is the smallest root z found so far with N(w) ⊆ N(z), or
// noDominator. Root vp skips w only when that root is below vp; a record
// at or above vp (written by a later root that got there first under
// ParAdaMBE) says nothing about vp's subtree. See docs/CORRECTNESS.md §6.
type rootDom []atomic.Int32

// newRootDom makes the record of a graph with nv V vertices. charge bills
// its 4 B per vertex to the run's memory gauge.
func newRootDom(nv int, charge func(int64)) rootDom {
	d := make(rootDom, nv)
	for i := range d {
		d[i].Store(noDominator)
	}
	charge(int64(nv) * 4)
	return d
}

// dominated reports whether root vp may skip w: some root below vp is
// recorded to dominate it.
func (d rootDom) dominated(w, vp int32) bool { return d[w].Load() < vp }

// record notes N(w) ⊆ N(z), keeping the smallest such root.
func (d rootDom) record(w, z int32) {
	p := &d[w]
	for {
		cur := p.Load()
		if z >= cur || p.CompareAndSwap(cur, z) {
			return
		}
	}
}
