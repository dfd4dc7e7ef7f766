package tle

import (
	"context"
	"errors"
	"fmt"
	"runtime/debug"
	"sync/atomic"
	"time"
)

// Reason says why an enumeration run stopped before completing the search
// tree. The zero value None means the run is still going (or finished).
// It is the one stop vocabulary: core.StopReason is an alias of it.
type Reason uint8

const (
	// None: not stopped.
	None Reason = iota
	// DeadlineExceeded: the wall-clock budget ran out (the paper's TLE).
	DeadlineExceeded
	// Canceled: the run's context was canceled.
	Canceled
	// MemoryExceeded: the soft memory budget was exceeded by engine-side
	// allocation accounting.
	MemoryExceeded
	// Aborted: a worker panicked (panic isolation, see Shared.Recover):
	// every other worker of the run winds down and returns partial
	// results. It prints as "panic".
	Aborted
)

// String names the reason.
func (r Reason) String() string {
	switch r {
	case None:
		return "none"
	case DeadlineExceeded:
		return "deadline"
	case Canceled:
		return "canceled"
	case MemoryExceeded:
		return "memory-budget"
	case Aborted:
		return "panic"
	default:
		return "unknown"
	}
}

// ErrPanic is wrapped by the error of a run in which a worker panicked:
// the run recovered the panic, wound down without leaking goroutines and
// returned partial results (see Shared.Recover).
var ErrPanic = errors.New("core: panic during enumeration")

// Shared is the per-run state every worker's Stopper observes: a sticky
// first-stop reason, the run-wide memory gauge and the run's first
// recovered panic. One Shared is created per enumeration run and handed
// to every worker; the zero value is ready to use.
type Shared struct {
	reason   atomic.Uint32
	mem      atomic.Int64
	panicked atomic.Pointer[error] // the first recovered panic
}

// Trip publishes r as the run's stop reason; the first reason wins.
func (s *Shared) Trip(r Reason) {
	if r != None {
		s.reason.CompareAndSwap(uint32(None), uint32(r))
	}
}

// Reason returns the published stop reason (None while running).
func (s *Shared) Reason() Reason { return Reason(s.reason.Load()) }

// Recover is the panic isolation of every engine, deferred directly by
// the function whose panics it contains (defer shared.Recover(where)).
// It recovers a panic of the deferring goroutine, keeps the run's first
// as an error wrapping ErrPanic — where names the panicking component,
// and the error carries its stack — and trips Aborted, so sibling workers
// wind down at their next poll. A serial run defers it after the
// function that reads Outcome, so that it runs first.
func (s *Shared) Recover(where string) {
	if r := recover(); r != nil {
		err := fmt.Errorf("%w in %s: %v\n%s", ErrPanic, where, r, debug.Stack())
		s.panicked.CompareAndSwap(nil, &err)
		s.Trip(Aborted)
	}
}

// Outcome is how the run ended, read once every worker has returned: the
// first recovered panic makes it (Aborted, that panic's error) whatever
// stopped the run first; otherwise it is the published stop reason and a
// nil error.
func (s *Shared) Outcome() (Reason, error) {
	if p := s.panicked.Load(); p != nil {
		return Aborted, *p
	}
	return s.Reason(), nil
}

// AddMem adjusts the run's tracked memory gauge by delta bytes. Negative
// deltas release a prior charge — queued parallel tasks charge their
// footprint at spawn and release it at completion — so the gauge tracks
// live engine-side memory, not cumulative allocation traffic.
func (s *Shared) AddMem(delta int64) { s.mem.Add(delta) }

// MemBytes returns the current tracked memory usage of the run.
func (s *Shared) MemBytes() int64 { return s.mem.Load() }

// Config bundles the stop conditions of one run. All fields are optional:
// the zero Config never stops.
type Config struct {
	// Deadline, if non-zero, stops the run once the instant passes.
	Deadline time.Time
	// Context, if non-nil, stops the run when it is canceled.
	Context context.Context
	// MaxMemoryBytes, if positive, stops the run once the Shared memory
	// gauge exceeds it.
	MaxMemoryBytes int64
	// OnPoll, if non-nil, runs at every poll of the stop conditions — the
	// first Hit, then once per CheckEvery hits, and every Poll — on the
	// worker's own goroutine, whether or not a deadline, context or budget
	// is set. The engines publish their live counters from it.
	OnPoll func()
	// FaultHook, if non-nil, runs at every Fault call with the call's
	// instrumentation site (test-only; see internal/faultinject). It must
	// be safe for concurrent calls when the run has several workers.
	FaultHook func(site string) error
}

// Stopper folds deadline, context cancellation, the soft memory budget and
// sibling-worker aborts into one amortized Hit check: engines call Hit on
// every node and the (comparatively expensive) clock/channel/atomic polls
// run once per CheckEvery calls.
// A Stopper belongs to one worker goroutine; workers of the same run share
// a *Shared so the first stop observed by any of them reaches all.
type Stopper struct {
	shared *Shared
	done   <-chan struct{}
	onPoll func()
	hook   func(site string) error
	at     time.Time
	budget int64
	timed  bool
	hits   int
	reason Reason
}

// NewStopper builds a worker Stopper over the run's shared stop state,
// which must not be nil; cfg's zero value adds no stop condition of its
// own. A zero Stopper is not usable.
func NewStopper(shared *Shared, cfg Config) Stopper {
	s := Stopper{
		shared: shared,
		onPoll: cfg.OnPoll,
		hook:   cfg.FaultHook,
		at:     cfg.Deadline,
		budget: cfg.MaxMemoryBytes,
		timed:  !cfg.Deadline.IsZero(),
		// Start one short of the threshold so the very first Hit polls: an
		// already-expired deadline or already-canceled context stops the
		// run before any work happens.
		hits: CheckEvery - 1,
	}
	if cfg.Context != nil {
		s.done = cfg.Context.Done()
	}
	return s
}

// Hit reports whether the run must stop, polling the stop conditions
// lazily. Once it returns true it keeps returning true.
func (s *Stopper) Hit() bool {
	if s.reason != None {
		return true
	}
	s.hits++
	if s.hits < CheckEvery {
		return false
	}
	s.hits = 0
	return s.poll()
}

func (s *Stopper) poll() bool {
	if s.onPoll != nil {
		s.onPoll()
	}
	if r := s.shared.Reason(); r != None {
		s.reason = r
		return true
	}
	if s.done != nil {
		select {
		case <-s.done:
			s.fail(Canceled)
			return true
		default:
		}
	}
	if s.timed && time.Now().After(s.at) {
		s.fail(DeadlineExceeded)
		return true
	}
	if s.budget > 0 && s.shared.MemBytes() > s.budget {
		s.fail(MemoryExceeded)
		return true
	}
	return false
}

// Poll forces an immediate check of the stop conditions, bypassing the
// amortization. Engines call it at coarse boundaries — parallel task
// starts — where a few extra clock/channel reads are negligible and
// promptness matters: cancellation latency becomes one task instead of one
// CheckEvery quantum per worker.
func (s *Stopper) Poll() bool {
	if s.reason != None {
		return true
	}
	s.hits = 0
	return s.poll()
}

// fail records r locally and publishes it to the run.
func (s *Stopper) fail(r Reason) {
	s.reason = r
	s.shared.Trip(r)
}

// Fault runs the fault hook at an engine instrumentation site and reports
// whether it failed. A failure is a simulated allocation failure: the
// worker stops with MemoryExceeded, as if the memory budget were
// exhausted. A panic in the hook propagates into the engine's panic
// isolation. Without a hook it is one inlined nil check.
func (s *Stopper) Fault(site string) bool {
	return s.hook != nil && s.fault(site)
}

// fault is Fault's out-of-line half, kept apart so Fault inlines.
func (s *Stopper) fault(site string) bool {
	if err := s.hook(site); err != nil {
		s.fail(MemoryExceeded)
		return true
	}
	return false
}

// Stopped reports whether a previous Hit, Poll or failed Fault stopped the
// worker.
func (s *Stopper) Stopped() bool { return s.reason != None }

// Reason returns the worker's local stop reason (None while running).
func (s *Stopper) Reason() Reason { return s.reason }

// AddMem charges delta bytes of engine-side allocation to the run's gauge
// (negative deltas release a prior charge). When a budget is set, the
// next Hit polls immediately so a blown budget is observed promptly rather
// than CheckEvery nodes later.
func (s *Stopper) AddMem(delta int64) {
	s.shared.AddMem(delta)
	if s.budget > 0 {
		s.hits = CheckEvery - 1
	}
}
