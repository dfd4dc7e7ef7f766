package tle

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"
)

func TestStopperZeroConfigNeverStops(t *testing.T) {
	polls := 0
	for _, cfg := range []Config{{}, {OnPoll: func() { polls++ }}} {
		s := NewStopper(&Shared{}, cfg)
		for i := 0; i < 3*CheckEvery; i++ {
			if s.Hit() {
				t.Fatalf("stopper without stop conditions stopped at hit %d", i)
			}
		}
		if s.Stopped() || s.Reason() != None {
			t.Fatalf("stopper without stop conditions: Stopped=%v Reason=%v", s.Stopped(), s.Reason())
		}
	}
	// OnPoll fires at the usual cadence with no stop condition set.
	if polls != 3 {
		t.Fatalf("OnPoll fired %d times in 3·CheckEvery hits, want 3", polls)
	}
}

func TestStopperPreExpiredDeadlineStopsOnFirstHit(t *testing.T) {
	s := NewStopper(&Shared{}, Config{Deadline: time.Now().Add(-time.Hour)})
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
	s := NewStopper(&Shared{}, Config{Deadline: time.Now().Add(time.Hour)})
	for i := 0; i < 3*CheckEvery; i++ {
		if s.Hit() {
			t.Fatal("future deadline hit")
		}
	}
}

func TestDeadlineEventuallyHits(t *testing.T) {
	s := NewStopper(&Shared{}, Config{Deadline: time.Now().Add(20 * time.Millisecond)})
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
	s := NewStopper(&Shared{}, Config{
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
	s := NewStopper(&Shared{}, Config{Context: ctx})
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
	b := NewStopper(shared, Config{})
	shared.Trip(Aborted) // e.g. a sibling's task panicked
	if !b.Hit() {
		t.Fatal("sibling stopper did not observe the trip on first Hit")
	}
	if b.Reason() != Aborted {
		t.Fatalf("sibling Reason = %v, want Aborted", b.Reason())
	}
}

func TestStopperFailIsSticky(t *testing.T) {
	s := NewStopper(&Shared{}, Config{FaultHook: func(string) error { return errors.New("injected") }})
	s.Fault("site")
	if !s.Stopped() || !s.Hit() || s.Reason() != MemoryExceeded {
		t.Fatalf("failed fault step not sticky: Stopped=%v Reason=%v", s.Stopped(), s.Reason())
	}
}

func TestPollBypassesAmortization(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	s := NewStopper(&Shared{}, Config{Context: ctx})
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
}

func TestReasonStrings(t *testing.T) {
	want := map[Reason]string{
		None: "none", DeadlineExceeded: "deadline", Canceled: "canceled",
		MemoryExceeded: "memory-budget", Aborted: "panic", Reason(99): "unknown",
	}
	for r, s := range want {
		if r.String() != s {
			t.Fatalf("Reason(%d).String() = %q, want %q", r, r.String(), s)
		}
	}
}

// TestRecoverKeepsFirstPanic pins the run's panic record: the first
// recovered panic wins, wraps ErrPanic with its site and stack, and makes
// the outcome a panic even when another stop was published first.
func TestRecoverKeepsFirstPanic(t *testing.T) {
	shared := &Shared{}
	if r, err := shared.Outcome(); r != None || err != nil {
		t.Fatalf("clean run: Outcome = (%v, %v), want (none, nil)", r, err)
	}
	shared.Trip(DeadlineExceeded)
	for _, where := range []string{"first worker", "second worker"} {
		func() {
			defer shared.Recover(where)
			panic("boom in " + where)
		}()
	}
	r, err := shared.Outcome()
	if r != Aborted || !errors.Is(err, ErrPanic) {
		t.Fatalf("Outcome = (%v, %v), want (panic, error wrapping ErrPanic)", r, err)
	}
	msg := err.Error()
	if !strings.Contains(msg, "in first worker: boom in first worker") || strings.Contains(msg, "second") {
		t.Fatalf("panic record %q does not name only the first panic", msg)
	}
	if !strings.Contains(msg, "TestRecoverKeepsFirstPanic") {
		t.Fatalf("panic record carries no stack of the panicking goroutine:\n%s", msg)
	}
	if shared.Reason() != DeadlineExceeded {
		t.Fatalf("published reason = %v, want the first trip (deadline) kept", shared.Reason())
	}
}

// TestRecoverWithoutPanic: a deferred Recover on a normal return records
// nothing and trips nothing.
func TestRecoverWithoutPanic(t *testing.T) {
	shared := &Shared{}
	func() { defer shared.Recover("worker") }()
	if r, err := shared.Outcome(); r != None || err != nil {
		t.Fatalf("Outcome = (%v, %v), want (none, nil)", r, err)
	}
}

// TestFaultHook: a hook error fails the worker and the run with
// MemoryExceeded; a nil error or no hook leaves both running.
func TestFaultHook(t *testing.T) {
	if s := NewStopper(&Shared{}, Config{}); s.Fault("site") || s.Stopped() {
		t.Fatal("Fault without a hook stopped the worker")
	}
	var sites []string
	shared := &Shared{}
	s := NewStopper(shared, Config{FaultHook: func(site string) error {
		sites = append(sites, site)
		if site == "fail" {
			return errors.New("injected")
		}
		return nil
	}})
	if s.Fault("pass") || s.Stopped() {
		t.Fatal("a nil hook error stopped the worker")
	}
	if !s.Fault("fail") || s.Reason() != MemoryExceeded || shared.Reason() != MemoryExceeded {
		t.Fatalf("failed fault step: worker %v, run %v, want memory-budget for both", s.Reason(), shared.Reason())
	}
	if len(sites) != 2 || sites[0] != "pass" || sites[1] != "fail" {
		t.Fatalf("hook saw sites %v, want [pass fail]", sites)
	}
}
