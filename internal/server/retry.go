// Package server is the MBE-as-a-service layer: a crash-safe,
// load-shedding enumeration daemon (cmd/mbed) over the library's
// durable spool/checkpoint primitives. It owns the job store (one spool
// dir + atomically-written manifest per job), the bounded admission
// queue (memory-budget + token-bucket shedding with 429 + Retry-After),
// the per-job execution loop (tle deadline, panic isolation, bounded
// retry with exponential backoff + jitter, exactly-once resume from the
// job's checkpoint), and restart recovery (re-adopt completed jobs into
// the result cache, resume interrupted ones). See docs/SERVER.md.
package server

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"time"
)

// Backoff is an exponential backoff schedule with full jitter: the
// nominal delay doubles per retry up to Max, and the actual delay is
// uniform in (0, nominal], which decorrelates the retry storms of many
// jobs failing at once. The zero value means 100ms base, 5s cap.
type Backoff struct {
	// Base is the nominal first delay.
	Base time.Duration
	// Max caps the nominal delay (before jitter).
	Max time.Duration
}

func (b Backoff) base() time.Duration {
	if b.Base <= 0 {
		return 100 * time.Millisecond
	}
	return b.Base
}

func (b Backoff) max() time.Duration {
	if b.Max <= 0 {
		return 5 * time.Second
	}
	return b.Max
}

// Delay returns the jittered delay before retry number retry (0 = the
// wait after the first failed attempt), drawing jitter from rng. A nil
// rng uses the process-global source; a seeded rng makes the whole
// schedule deterministic, which is how the tests pin it.
func (b Backoff) Delay(retry int, rng *rand.Rand) time.Duration {
	nominal := float64(b.base())
	for i := 0; i < retry; i++ {
		nominal *= 2
		if nominal >= float64(b.max()) {
			break
		}
	}
	if m := float64(b.max()); nominal > m {
		nominal = m
	}
	u := rand.Float64
	if rng != nil {
		u = rng.Float64
	}
	return time.Duration(nominal * (1 - u()))
}

// permanent wraps an error to mark it non-retryable.
type permanent struct{ err error }

func (p *permanent) Error() string { return p.err.Error() }
func (p *permanent) Unwrap() error { return p.err }

// Permanent marks err as non-retryable: Retry returns it (unwrapped by
// errors.Is/As) without consuming further attempts.
func Permanent(err error) error {
	if err == nil {
		return nil
	}
	return &permanent{err}
}

// IsPermanent reports whether err (or anything it wraps) was marked
// with Permanent.
func IsPermanent(err error) bool {
	var p *permanent
	return errors.As(err, &p)
}

// RetryPolicy bounds the retry loop.
type RetryPolicy struct {
	// MaxAttempts is the total number of attempts, including the first;
	// <= 0 means 3.
	MaxAttempts int
	// Backoff is the delay schedule between attempts.
	Backoff Backoff
	// Sleep, if non-nil, replaces the context-aware wait between
	// attempts — the test seam for observing the schedule without
	// sleeping. It must return ctx.Err() if ctx is done before d
	// elapses.
	Sleep func(ctx context.Context, d time.Duration) error
}

func (p RetryPolicy) attempts() int {
	if p.MaxAttempts <= 0 {
		return 3
	}
	return p.MaxAttempts
}

func (p RetryPolicy) sleep(ctx context.Context, d time.Duration) error {
	if p.Sleep != nil {
		return p.Sleep(ctx, d)
	}
	if d <= 0 {
		// Still observe cancellation between back-to-back attempts.
		select {
		case <-ctx.Done():
			return ctx.Err()
		default:
			return nil
		}
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}

// RetryBudgetError is returned by Retry when every attempt failed with
// a retryable error; Unwrap yields the last attempt's error.
type RetryBudgetError struct {
	Attempts int
	Last     error
}

func (e *RetryBudgetError) Error() string {
	return fmt.Sprintf("server: retry budget exhausted after %d attempts: %v", e.Attempts, e.Last)
}

func (e *RetryBudgetError) Unwrap() error { return e.Last }

// Retry runs attempt up to p.MaxAttempts times, sleeping the jittered
// backoff between failures. It stops early — returning the attempt's
// error as-is — when the error is marked Permanent, and returns
// ctx.Err() (wrapped with the last attempt error, if any) when ctx is
// canceled mid-backoff. attempt receives the 0-based try number.
func Retry(ctx context.Context, p RetryPolicy, attempt func(try int) error) error {
	var last error
	n := p.attempts()
	for try := 0; try < n; try++ {
		if try > 0 {
			if err := p.sleep(ctx, p.Backoff.Delay(try-1, nil)); err != nil {
				return fmt.Errorf("%w (while backing off from: %v)", err, last)
			}
		}
		err := attempt(try)
		if err == nil {
			return nil
		}
		if IsPermanent(err) {
			return err
		}
		last = err
	}
	return &RetryBudgetError{Attempts: n, Last: last}
}
