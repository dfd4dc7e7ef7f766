package ckpt

import "sync"

// Frontier tracks which root subtrees of a running enumeration are
// fully finished. It satisfies core's FrontierObserver interface
// structurally (this package never imports core).
//
// Work on a root begins (Begin) and ends (End). The engines' root loop
// begins the roots themselves in ascending order and ends each one in
// any order; a ParAdaMBE subtree detached from root r begins while r is
// still in flight and ends on whatever worker runs it. A root is done
// when it has begun and every piece of work begun on it has ended done,
// so the watermark — the first not-fully-done root — is
//
//	min(begun, min{ r : outstanding[r] > 0 })
//
// where begun is one past the highest root begun, computed lazily at
// Watermark() since callers only need it at checkpoint cadence.
//
// Conservatism rules, each load-bearing for exactly-once resume:
//
//   - A detached subtree must Begin BEFORE it is pushed to the
//     scheduler; otherwise a thief could end it before its Begin was
//     registered, letting the watermark jump past a root whose work was
//     still conceptually in flight.
//   - Any work that ends not done (stop tripped, panic isolation)
//     freezes the frontier permanently: the watermark can never again
//     advance, because roots at or above it may now be silently
//     incomplete.
type Frontier struct {
	mu          sync.Mutex
	nv          int32
	begun       int32 // one past the highest root begun
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
		begun:       start,
		outstanding: make(map[int32]int),
		watermark:   start,
	}
}

// Begin records that a piece of root's work began: the root itself, in
// ascending order, or a subtree detached from it (before the push, see
// the type comment).
func (f *Frontier) Begin(root int32) {
	f.mu.Lock()
	f.outstanding[root]++
	f.begun = max(f.begun, root+1)
	f.mu.Unlock()
}

// End records that a piece of root's work ended: done says it ran to
// completion. Work that ends not done may have left its subtree
// incomplete, so the frontier freezes at the current watermark, which
// the still-outstanding root bounds.
func (f *Frontier) End(root int32, done bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if !done {
		f.freezeLocked()
		return
	}
	if n := f.outstanding[root]; n <= 1 {
		delete(f.outstanding, root)
	} else {
		f.outstanding[root] = n - 1
	}
}

// Freeze pins the watermark unconditionally. The run lifecycle calls it
// when a run stops early, so an interrupted run's final checkpoint never
// depends on which of its work happened to end not done.
func (f *Frontier) Freeze() {
	f.mu.Lock()
	f.freezeLocked()
	f.mu.Unlock()
}

// freezeLocked advances the cached watermark one last time before
// pinning it. The advance is sound at freeze time: everything that
// ended done before the freeze is genuinely done, and work that ended
// not done is still in outstanding (that End never decrements), so its
// root bounds the min. Without this, an interrupt that lands before the
// first checkpoint tick would freeze the watermark at its resume-start
// value and the final checkpoint would discard all progress.
func (f *Frontier) freezeLocked() {
	if !f.frozen {
		f.advanceLocked()
		f.frozen = true
	}
}

// advanceLocked recomputes min(begun, min outstanding) into the
// monotone cache. Caller holds f.mu; must not be frozen.
func (f *Frontier) advanceLocked() {
	w := f.begun
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
	return !f.frozen && f.begun >= f.nv && len(f.outstanding) == 0
}
