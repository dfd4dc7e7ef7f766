package mbe_test

import (
	"context"
	"testing"
	"time"

	mbe "repro"
	"repro/internal/faultinject"
)

// lifecycleGraph carries ~12k maximal bicliques — enough work that mid-run
// stop conditions are always observed before any algorithm finishes.
func lifecycleGraph() *mbe.Graph {
	return mbe.GenerateUniform(5, 300, 120, 4000)
}

// TestStopReasonAllAlgorithms is the public-API lifecycle contract: every
// Algorithm honors both Deadline and Context, reports the matching
// StopReason with a partial monotone count, and leaks no goroutines.
func TestStopReasonAllAlgorithms(t *testing.T) {
	g := lifecycleGraph()
	full := make(map[mbe.Algorithm]int64)
	for _, a := range allAlgorithms() {
		res, err := mbe.Enumerate(g, mbe.Options{Algorithm: a, Threads: 4})
		if err != nil {
			t.Fatalf("%s: %v", a, err)
		}
		if res.Count < 5000 {
			t.Fatalf("%s: lifecycle graph too small: %d bicliques", a, res.Count)
		}
		full[a] = res.Count
	}

	t.Run("PreExpiredDeadline", func(t *testing.T) {
		expired := time.Now().Add(-time.Hour)
		for _, a := range allAlgorithms() {
			checkLeaks := faultinject.CheckGoroutines(t)
			res, err := mbe.Enumerate(g, mbe.Options{Algorithm: a, Threads: 4, Deadline: expired})
			if err != nil {
				t.Fatalf("%s: %v", a, err)
			}
			if res.StopReason != mbe.StopDeadline {
				t.Fatalf("%s: StopReason = %v, want StopDeadline", a, res.StopReason)
			}
			if res.Count != 0 {
				t.Fatalf("%s: pre-expired deadline emitted %d bicliques", a, res.Count)
			}
			checkLeaks()
		}
	})

	t.Run("PreCanceledContext", func(t *testing.T) {
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		for _, a := range allAlgorithms() {
			checkLeaks := faultinject.CheckGoroutines(t)
			res, err := mbe.Enumerate(g, mbe.Options{Algorithm: a, Threads: 4, Context: ctx})
			if err != nil {
				t.Fatalf("%s: %v", a, err)
			}
			if res.StopReason != mbe.StopCanceled {
				t.Fatalf("%s: StopReason = %v, want StopCanceled", a, res.StopReason)
			}
			if res.Count != 0 {
				t.Fatalf("%s: pre-canceled run emitted %d bicliques", a, res.Count)
			}
			checkLeaks()
		}
	})

	t.Run("MidRunCancel", func(t *testing.T) {
		for _, a := range allAlgorithms() {
			checkLeaks := faultinject.CheckGoroutines(t)
			ctx, cancel := context.WithCancel(context.Background())
			n := 0
			res, err := mbe.Enumerate(g, mbe.Options{
				Algorithm: a, Threads: 4, Context: ctx,
				OnBiclique: func(L, R []int32) {
					if n++; n == 50 {
						cancel()
					}
				},
			})
			cancel()
			if err != nil {
				t.Fatalf("%s: %v", a, err)
			}
			if res.StopReason != mbe.StopCanceled {
				t.Fatalf("%s: StopReason = %v, want StopCanceled", a, res.StopReason)
			}
			if res.Count < 50 || res.Count >= full[a] {
				t.Fatalf("%s: partial count %d, want in [50, %d)", a, res.Count, full[a])
			}
			checkLeaks()
		}
	})
}

func TestMemoryBudgetThroughAPI(t *testing.T) {
	g := lifecycleGraph()
	for _, a := range allAlgorithms() {
		res, err := mbe.Enumerate(g, mbe.Options{Algorithm: a, Threads: 4, MaxMemoryBytes: 1})
		if err != nil {
			t.Fatalf("%s: %v", a, err)
		}
		if res.StopReason != mbe.StopMemoryBudget {
			t.Fatalf("%s: StopReason = %v, want StopMemoryBudget", a, res.StopReason)
		}
	}
}
