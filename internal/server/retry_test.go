package server

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"testing"
	"time"
)

// TestBackoffDeterministicSchedule pins the jittered schedule under a
// seeded rand: full jitter draws uniformly in [0, nominal], so with the
// same seed the exact delays must reproduce, every delay must stay inside
// its attempt's envelope, and it must be the nominal delay (doubling from
// Base, capped at Max) scaled by the seed's one draw.
func TestBackoffDeterministicSchedule(t *testing.T) {
	b := Backoff{Base: 100 * time.Millisecond, Max: 5 * time.Second}

	want := make([]time.Duration, 8)
	for i := range want {
		want[i] = b.Delay(i, rand.New(rand.NewSource(42)))
	}
	for i := range want {
		got := b.Delay(i, rand.New(rand.NewSource(42)))
		if got != want[i] {
			t.Errorf("retry %d: same seed gave %v then %v", i, want[i], got)
		}
		nominal := 100 * time.Millisecond << i
		if nominal > 5*time.Second {
			nominal = 5 * time.Second
		}
		if got < 0 || got > nominal {
			t.Errorf("retry %d: delay %v outside [0, %v]", i, got, nominal)
		}
		u := rand.New(rand.NewSource(42)).Float64()
		if exact := time.Duration(float64(nominal) * (1 - u)); got != exact {
			t.Errorf("retry %d: delay %v, want %v (nominal %v scaled by 1-%.3f)", i, got, exact, nominal, u)
		}
	}

	// Different seeds should disagree somewhere — otherwise the jitter
	// isn't actually sampling.
	differs := false
	for i := range want {
		if b.Delay(i, rand.New(rand.NewSource(7))) != want[i] {
			differs = true
		}
	}
	if !differs {
		t.Error("schedules identical across seeds; jitter is not applied")
	}
}

func TestRetryBudgetExhaustion(t *testing.T) {
	var tries []int
	boom := errors.New("boom")
	p := RetryPolicy{
		MaxAttempts: 4,
		Backoff:     Backoff{Base: time.Nanosecond},
		Sleep:       func(ctx context.Context, d time.Duration) error { return nil },
	}
	err := Retry(context.Background(), p, func(try int) error {
		tries = append(tries, try)
		return fmt.Errorf("attempt %d: %w", try, boom)
	})
	if len(tries) != 4 {
		t.Fatalf("attempts = %v, want [0 1 2 3]", tries)
	}
	var budget *RetryBudgetError
	if !errors.As(err, &budget) {
		t.Fatalf("err = %v, want *RetryBudgetError", err)
	}
	if budget.Attempts != 4 || !errors.Is(err, boom) {
		t.Errorf("budget = %+v (Is(boom)=%v), want Attempts=4 wrapping boom", budget, errors.Is(err, boom))
	}
}

func TestRetryNonRetryablePassthrough(t *testing.T) {
	calls := 0
	fatal := errors.New("fatal")
	p := RetryPolicy{MaxAttempts: 5, Sleep: func(context.Context, time.Duration) error { return nil }}
	err := Retry(context.Background(), p, func(try int) error {
		calls++
		return Permanent(fatal)
	})
	if calls != 1 {
		t.Errorf("attempt ran %d times, want 1 (Permanent must not retry)", calls)
	}
	if !errors.Is(err, fatal) {
		t.Errorf("err = %v, want it to wrap the original error", err)
	}
	if !IsPermanent(err) {
		t.Errorf("IsPermanent(%v) = false, want true", err)
	}
}

func TestRetrySucceedsMidBudget(t *testing.T) {
	calls := 0
	p := RetryPolicy{MaxAttempts: 5, Sleep: func(context.Context, time.Duration) error { return nil }}
	err := Retry(context.Background(), p, func(try int) error {
		calls++
		if try < 2 {
			return errors.New("transient")
		}
		return nil
	})
	if err != nil || calls != 3 {
		t.Errorf("err = %v after %d calls, want nil after 3", err, calls)
	}
}

// TestRetryContextCanceledMidBackoff cancels the context while Retry is
// sleeping between attempts: the cancellation must surface promptly
// (no third attempt) and keep the last attempt error in the message.
func TestRetryContextCanceledMidBackoff(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	sleeping := make(chan struct{})
	calls := 0
	p := RetryPolicy{
		MaxAttempts: 5,
		Backoff:     Backoff{Base: time.Hour}, // real sleep would hang the test
		Sleep: func(ctx context.Context, d time.Duration) error {
			close(sleeping)
			<-ctx.Done()
			return ctx.Err()
		},
	}
	go func() {
		<-sleeping
		cancel()
	}()
	err := Retry(ctx, p, func(try int) error {
		calls++
		return errors.New("transient failure")
	})
	if calls != 1 {
		t.Errorf("attempt ran %d times, want 1 (canceled during first backoff)", calls)
	}
	if !errors.Is(err, context.Canceled) {
		t.Errorf("err = %v, want context.Canceled", err)
	}
}

// TestRetryDefaultSleepHonorsContext exercises the real timer-based
// Sleep: an already-canceled context must return immediately even for
// a long delay.
func TestRetryDefaultSleepHonorsContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	p := RetryPolicy{MaxAttempts: 3, Backoff: Backoff{Base: time.Hour}}
	start := time.Now()
	err := Retry(ctx, p, func(try int) error { return errors.New("transient") })
	if !errors.Is(err, context.Canceled) {
		t.Errorf("err = %v, want context.Canceled", err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Errorf("Retry blocked %v on a canceled context", elapsed)
	}
}
