package ckpt

import "sync"

// Frontier tracks which root subtrees of a running enumeration are
// fully finished. It satisfies core's FrontierObserver interface
// structurally (this package never imports core).
//
// A serial root loop completes roots' inline work in strictly
// ascending order. Parallel root loops claim roots one at a time, in
// ascending order, and finish them in any order: each claim registers
// as an outstanding task of its root (TaskSpawned, then RootInlineDone,
// at claim time) and ends with TaskDone or TaskDiscarded. Subtree tasks
// (tagged with their root) finish in arbitrary order on arbitrary
// workers. A root is done when its inline pass is done AND it has no
// outstanding tasks, so the watermark — the first not-fully-done root —
// is
//
//	min(inlineDone, min{ r : outstanding[r] > 0 })
//
// computed lazily at Watermark() since callers only need it at
// checkpoint cadence.
//
// Conservatism rules, each load-bearing for exactly-once resume:
//
//   - TaskSpawned must be called BEFORE the task is pushed to the
//     scheduler; otherwise a thief could finish the task (TaskDone)
//     before its spawn was registered, letting the watermark jump past
//     a root whose work was still conceptually in flight.
//   - Any task that is discarded instead of run to completion (stop
//     tripped, panic isolation) freezes the frontier permanently: the
//     watermark can never again advance, because roots at or above it
//     may now be silently incomplete.
type Frontier struct {
	mu          sync.Mutex
	nv          int32
	inlineDone  int32 // first root whose inline pass has NOT completed
	outstanding map[int32]int
	frozen      bool
	watermark   int32 // cached; monotone non-decreasing
}

// NewFrontier makes a frontier for roots [start, nv). start is the
// resume watermark: roots below it are already durable and will not be
// re-enumerated, so the watermark begins there.
func NewFrontier(start, nv int32) *Frontier {
	return &Frontier{
		nv:          nv,
		inlineDone:  start,
		outstanding: make(map[int32]int),
		watermark:   start,
	}
}

// RootInlineDone records that root's inline pass finished — or, for a
// parallel root claim, that the claim was registered as an outstanding
// task. Either way roots report here in ascending order; a skipped root
// (degree 0, pruned, subtree filter) still reports when the loop moves
// past it.
func (f *Frontier) RootInlineDone(root int32) {
	f.mu.Lock()
	if root+1 > f.inlineDone {
		f.inlineDone = root + 1
	}
	f.mu.Unlock()
}

// TaskSpawned records a subtree task tagged with root entering the
// scheduler. Call before the push (see type comment).
func (f *Frontier) TaskSpawned(root int32) {
	f.mu.Lock()
	f.outstanding[root]++
	f.mu.Unlock()
}

// TaskDone records a spawned task that ran to completion.
func (f *Frontier) TaskDone(root int32) {
	f.mu.Lock()
	if n := f.outstanding[root]; n <= 1 {
		delete(f.outstanding, root)
	} else {
		f.outstanding[root] = n - 1
	}
	f.mu.Unlock()
}

// TaskDiscarded records a spawned task that will never complete its
// subtree (the run is stopping). The frontier freezes at the current
// watermark.
func (f *Frontier) TaskDiscarded(root int32) {
	f.mu.Lock()
	f.freezeLocked()
	f.mu.Unlock()
}

// Freeze pins the watermark unconditionally. The engine calls the
// discard path for queued tasks, but a stop that hits while the root
// loop itself is mid-iteration has no task to discard — the run
// lifecycle freezes explicitly instead.
func (f *Frontier) Freeze() {
	f.mu.Lock()
	f.freezeLocked()
	f.mu.Unlock()
}

// freezeLocked advances the cached watermark one last time before
// pinning it. The advance is sound at freeze time: everything recorded
// Done before the freeze is genuinely done, and a discarded task's root
// is still in outstanding (Discarded never decrements), so it bounds
// the min. Without this, an interrupt that lands before the first
// checkpoint tick would freeze the watermark at its resume-start value
// and the final checkpoint would discard all progress.
func (f *Frontier) freezeLocked() {
	if !f.frozen {
		f.advanceLocked()
		f.frozen = true
	}
}

// advanceLocked recomputes min(inlineDone, min outstanding) into the
// monotone cache. Caller holds f.mu; must not be frozen.
func (f *Frontier) advanceLocked() {
	w := f.inlineDone
	for r := range f.outstanding {
		if r < w {
			w = r
		}
	}
	if w > f.watermark {
		f.watermark = w
	}
}

// Frozen reports whether the watermark is pinned.
func (f *Frontier) Frozen() bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.frozen
}

// Watermark returns the first root not yet fully enumerated: every root
// below the watermark is completely done. Monotone non-decreasing over
// the life of the frontier.
func (f *Frontier) Watermark() int32 {
	f.mu.Lock()
	defer f.mu.Unlock()
	if !f.frozen {
		f.advanceLocked()
	}
	return f.watermark
}

// Complete reports whether every root finished: the watermark reached
// nv with nothing outstanding and no freeze.
func (f *Frontier) Complete() bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	return !f.frozen && f.inlineDone >= f.nv && len(f.outstanding) == 0
}
