package tle

import (
	"context"
	"testing"
	"time"
)

func TestStopperZeroConfigNeverStops(t *testing.T) {
	polls := 0
	for _, cfg := range []Config{{}, {OnPoll: func() { polls++ }}} {
		s := NewStopper(nil, cfg)
		for i := 0; i < 3*CheckEvery; i++ {
			if s.Hit() {
				t.Fatalf("stopper without stop conditions stopped at hit %d", i)
			}
		}
		if s.Stopped() || s.Reason() != None {
			t.Fatalf("stopper without stop conditions: Stopped=%v Reason=%v", s.Stopped(), s.Reason())
		}
	}
	// OnPoll alone arms the stopper: it fires at the usual cadence.
	if polls != 3 {
		t.Fatalf("OnPoll fired %d times in 3·CheckEvery hits, want 3", polls)
	}
}

func TestStopperPreExpiredDeadlineStopsOnFirstHit(t *testing.T) {
	s := NewStopper(nil, Config{Deadline: time.Now().Add(-time.Hour)})
	if !s.Hit() {
		t.Fatal("first Hit did not observe the expired deadline")
	}
	if s.Reason() != DeadlineExceeded {
		t.Fatalf("Reason = %v, want DeadlineExceeded", s.Reason())
	}
	if !s.Hit() || !s.Stopped() {
		t.Fatal("stop must be sticky")
	}
}

func TestFutureDeadlineDoesNotHit(t *testing.T) {
	s := NewStopper(nil, Config{Deadline: time.Now().Add(time.Hour)})
	for i := 0; i < 3*CheckEvery; i++ {
		if s.Hit() {
			t.Fatal("future deadline hit")
		}
	}
}

func TestDeadlineEventuallyHits(t *testing.T) {
	s := NewStopper(nil, Config{Deadline: time.Now().Add(20 * time.Millisecond)})
	deadline := time.Now().Add(5 * time.Second)
	for !s.Hit() {
		if time.Now().After(deadline) {
			t.Fatal("deadline never hit")
		}
	}
	if s.Reason() != DeadlineExceeded {
		t.Fatalf("Reason = %v, want DeadlineExceeded", s.Reason())
	}
}

// TestAmortizedPolling pins the poll cadence: the stop conditions — and
// the OnPoll callback with them — are consulted on the first Hit, then
// once per CheckEvery hits, and on every Poll. Between polls Hit must be
// false even after the wall clock passes the deadline.
func TestAmortizedPolling(t *testing.T) {
	polls := 0
	s := NewStopper(nil, Config{
		Deadline: time.Now().Add(50 * time.Millisecond),
		OnPoll:   func() { polls++ },
	})
	if s.Hit() {
		t.Fatal("hit immediately")
	}
	if polls != 1 {
		t.Fatalf("first Hit polled %d times, want 1", polls)
	}
	for i := 0; i < CheckEvery; i++ {
		if s.Hit() {
			t.Fatalf("stopped before the deadline at hit %d", i)
		}
		if want := 1 + (i+1)/CheckEvery; polls != want {
			t.Fatalf("after %d more hits: %d polls, want %d", i+1, polls, want)
		}
	}
	if s.Poll() || polls != 3 {
		t.Fatalf("Poll: stopped early or did not poll (%d polls, want 3)", polls)
	}
	time.Sleep(60 * time.Millisecond)
	// The deadline has passed, but the next poll happens only after
	// CheckEvery-1 more hits (Poll restarted the quantum).
	for i := 0; i < CheckEvery-1; i++ {
		if s.Hit() {
			t.Fatalf("polled too early at hit %d", i)
		}
	}
	if polls != 3 {
		t.Fatalf("%d polls between quanta, want 3", polls)
	}
	if !s.Hit() {
		t.Fatal("poll did not happen at the CheckEvery boundary")
	}
	if polls != 4 {
		t.Fatalf("%d polls after the boundary, want 4", polls)
	}
}

func TestStopperPreCanceledContextStopsOnFirstHit(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	shared := &Shared{}
	s := NewStopper(shared, Config{Context: ctx})
	if !s.Hit() {
		t.Fatal("first Hit did not observe the canceled context")
	}
	if s.Reason() != Canceled {
		t.Fatalf("Reason = %v, want Canceled", s.Reason())
	}
	if shared.Reason() != Canceled {
		t.Fatalf("shared.Reason = %v, want Canceled (fail must publish)", shared.Reason())
	}
}

func TestStopperContextCancelObservedWithinOneQuantum(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	s := NewStopper(nil, Config{Context: ctx})
	if s.Hit() { // first poll: context live
		t.Fatal("stopped before cancel")
	}
	cancel()
	stopped := false
	for i := 0; i < CheckEvery; i++ {
		if s.Hit() {
			stopped = true
			break
		}
	}
	if !stopped {
		t.Fatal("cancel not observed within CheckEvery hits")
	}
	if s.Reason() != Canceled {
		t.Fatalf("Reason = %v, want Canceled", s.Reason())
	}
}

func TestStopperMemoryBudget(t *testing.T) {
	shared := &Shared{}
	s := NewStopper(shared, Config{MaxMemoryBytes: 1000})
	if s.Hit() {
		t.Fatal("stopped under budget")
	}
	s.AddMem(500)
	if s.Hit() {
		t.Fatal("stopped at 500 of 1000 bytes")
	}
	// AddMem beyond the budget forces the next Hit to poll immediately.
	s.AddMem(501)
	if !s.Hit() {
		t.Fatal("Hit after blowing the budget did not stop")
	}
	if s.Reason() != MemoryExceeded {
		t.Fatalf("Reason = %v, want MemoryExceeded", s.Reason())
	}
	if shared.MemBytes() != 1001 {
		t.Fatalf("MemBytes = %d, want 1001", shared.MemBytes())
	}
}

func TestSharedTripFirstReasonWins(t *testing.T) {
	var sh Shared
	sh.Trip(None) // no-op
	if sh.Reason() != None {
		t.Fatal("Trip(None) published a reason")
	}
	sh.Trip(DeadlineExceeded)
	sh.Trip(Aborted)
	if sh.Reason() != DeadlineExceeded {
		t.Fatalf("Reason = %v, want first-wins DeadlineExceeded", sh.Reason())
	}
}

func TestStopperObservesSiblingTrip(t *testing.T) {
	shared := &Shared{}
	a := NewStopper(shared, Config{})
	b := NewStopper(shared, Config{})
	a.Fail(Aborted) // e.g. a's task panicked
	if !b.Hit() {
		t.Fatal("sibling stopper did not observe the trip on first Hit")
	}
	if b.Reason() != Aborted {
		t.Fatalf("sibling Reason = %v, want Aborted", b.Reason())
	}
}

func TestStopperFailIsSticky(t *testing.T) {
	s := NewStopper(nil, Config{})
	s.Fail(MemoryExceeded)
	if !s.Stopped() || !s.Hit() || s.Reason() != MemoryExceeded {
		t.Fatalf("Fail not sticky: Stopped=%v Reason=%v", s.Stopped(), s.Reason())
	}
}

func TestPollBypassesAmortization(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	s := NewStopper(nil, Config{Context: ctx})
	if s.Hit() { // consumes the initial immediate poll
		t.Fatal("stopped before cancel")
	}
	cancel()
	// A plain Hit here would wait out the quantum; Poll must not.
	if !s.Poll() {
		t.Fatal("Poll did not observe the canceled context")
	}
	if s.Reason() != Canceled {
		t.Fatalf("Reason = %v, want Canceled", s.Reason())
	}
	if !s.Poll() {
		t.Fatal("Poll must stay stopped")
	}
	unarmed := NewStopper(nil, Config{})
	if unarmed.Poll() {
		t.Fatal("unarmed Poll stopped")
	}
}

func TestReasonStrings(t *testing.T) {
	want := map[Reason]string{
		None: "none", DeadlineExceeded: "deadline", Canceled: "canceled",
		MemoryExceeded: "memory-budget", Aborted: "aborted", Reason(99): "unknown",
	}
	for r, s := range want {
		if r.String() != s {
			t.Fatalf("Reason(%d).String() = %q, want %q", r, r.String(), s)
		}
	}
}
