package ckpt

import "testing"

// finishRoot runs root r through the frontier the way a root loop does
// when r and everything detached from it finish: Begin, then End done.
func finishRoot(f *Frontier, r int32) {
	f.Begin(r)
	f.End(r, true)
}

func TestFrontierInlineOnly(t *testing.T) {
	f := NewFrontier(0, 10)
	if w := f.Watermark(); w != 0 {
		t.Fatalf("fresh watermark = %d, want 0", w)
	}
	for r := int32(0); r < 5; r++ {
		finishRoot(f, r)
	}
	if w := f.Watermark(); w != 5 {
		t.Fatalf("after roots 0..4: watermark = %d, want 5", w)
	}
	if f.Complete() {
		t.Fatal("not complete at watermark 5 of 10")
	}
	for r := int32(5); r < 10; r++ {
		finishRoot(f, r)
	}
	if w := f.Watermark(); w != 10 {
		t.Fatalf("watermark = %d, want 10", w)
	}
	if !f.Complete() {
		t.Fatal("all roots ended done with nothing outstanding must be complete")
	}
}

// TestFrontierBegunRootHoldsWatermark: a root that has begun and not
// ended holds the watermark at itself, even while later roots finish.
func TestFrontierBegunRootHoldsWatermark(t *testing.T) {
	f := NewFrontier(0, 10)
	finishRoot(f, 0)
	f.Begin(1)
	finishRoot(f, 2)
	finishRoot(f, 3)
	if w := f.Watermark(); w != 1 {
		t.Fatalf("root 1 in flight: watermark = %d, want 1", w)
	}
	f.End(1, true)
	if w := f.Watermark(); w != 4 {
		t.Fatalf("root 1 ended: watermark = %d, want 4", w)
	}
}

func TestFrontierOutstandingHoldsWatermark(t *testing.T) {
	f := NewFrontier(0, 20)
	for r := int32(0); r < 3; r++ {
		finishRoot(f, r)
	}
	f.Begin(3)
	f.Begin(3) // a subtree detached while root 3's expansion runs
	f.Begin(3) // a second subtree of the same root
	f.End(3, true)
	for r := int32(4); r < 10; r++ {
		finishRoot(f, r)
	}
	if w := f.Watermark(); w != 3 {
		t.Fatalf("outstanding subtrees at root 3: watermark = %d, want 3", w)
	}
	f.End(3, true)
	if w := f.Watermark(); w != 3 {
		t.Fatalf("one of two subtrees done: watermark = %d, want 3", w)
	}
	f.End(3, true)
	if w := f.Watermark(); w != 10 {
		t.Fatalf("all subtrees done: watermark = %d, want 10", w)
	}
	if f.Complete() {
		t.Fatal("frontier at 10 of 20 is not complete")
	}
}

func TestFrontierMonotone(t *testing.T) {
	f := NewFrontier(0, 20)
	for r := int32(0); r < 8; r++ {
		finishRoot(f, r)
	}
	if w := f.Watermark(); w != 8 {
		t.Fatalf("watermark = %d, want 8", w)
	}
	// Work beginning at a root BELOW the cached watermark cannot happen
	// in a real run (its root finished), but the cache must stay
	// monotone regardless.
	f.Begin(2)
	if w := f.Watermark(); w != 8 {
		t.Fatalf("watermark regressed to %d", w)
	}
}

func TestFrontierDiscardFreezes(t *testing.T) {
	f := NewFrontier(0, 20)
	for r := int32(0); r < 6; r++ {
		finishRoot(f, r)
	}
	f.Begin(6)
	f.Begin(7)
	f.Begin(7) // a subtree of root 7
	f.End(7, true)
	f.End(6, true)
	f.End(7, false)
	// The freeze-time advance captures completed work (roots 0..6) but
	// the subtree that ended not done pins the watermark at its root.
	if w := f.Watermark(); w != 7 {
		t.Fatalf("frozen watermark = %d, want 7", w)
	}
	if !f.Frozen() {
		t.Fatal("work ending not done must freeze the frontier")
	}
	// Nothing moves it afterwards.
	f.End(7, true)
	for r := int32(8); r < 20; r++ {
		finishRoot(f, r)
	}
	if w := f.Watermark(); w != 7 {
		t.Fatalf("frozen watermark moved to %d", w)
	}
	if f.Complete() {
		t.Fatal("a frozen frontier is never complete")
	}
}

// TestFreezeAdvancesFirst is the regression test for the stale-cache
// bug: an interrupt before any Watermark() call must still checkpoint
// the real progress, not the resume-start value.
func TestFreezeAdvancesFirst(t *testing.T) {
	f := NewFrontier(0, 100)
	for r := int32(0); r < 42; r++ {
		finishRoot(f, r)
	}
	f.Freeze() // no Watermark() call before this
	if w := f.Watermark(); w != 42 {
		t.Fatalf("freeze-time watermark = %d, want 42", w)
	}
}

func TestFrontierResumeStart(t *testing.T) {
	f := NewFrontier(30, 50)
	if w := f.Watermark(); w != 30 {
		t.Fatalf("resume frontier starts at %d, want 30", w)
	}
	for r := int32(30); r < 50; r++ {
		finishRoot(f, r)
	}
	if !f.Complete() {
		t.Fatal("resumed run finished all remaining roots")
	}
}
