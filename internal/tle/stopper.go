package tle

import (
	"context"
	"sync/atomic"
	"time"
)

// Reason says why an enumeration run stopped before completing the search
// tree. The zero value None means the run is still going (or finished).
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
	// Aborted: a sibling worker failed (panic isolation): every other
	// worker of the run winds down and returns partial results.
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
		return "aborted"
	default:
		return "unknown"
	}
}

// Shared is the per-run state every worker's Stopper observes: a sticky
// first-stop reason and the run-wide memory gauge. One Shared is created
// per enumeration run and handed to every worker; the zero value is ready
// to use.
type Shared struct {
	reason atomic.Uint32
	mem    atomic.Int64
}

// Trip publishes r as the run's stop reason; the first reason wins.
func (s *Shared) Trip(r Reason) {
	if r != None {
		s.reason.CompareAndSwap(uint32(None), uint32(r))
	}
}

// Reason returns the published stop reason (None while running).
func (s *Shared) Reason() Reason { return Reason(s.reason.Load()) }

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

// Fail force-stops the worker outside the Hit cadence (simulated
// allocation failure, fault injection).
func (s *Stopper) Fail(r Reason) { s.fail(r) }

// Stopped reports whether a previous Hit (or Fail) stopped the worker.
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
