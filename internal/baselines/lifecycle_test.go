package baselines

import (
	"context"
	"errors"
	"slices"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/faultinject"
	"repro/internal/gen"
	"repro/internal/graph"
)

// lifecycleGraph has enough maximal bicliques (~12k) that mid-run stop
// conditions are always observed before any baseline finishes.
func lifecycleGraph() *graph.Bipartite {
	return gen.Uniform(5, 300, 120, 4000)
}

func TestParMBEWorkerPanicMidRun(t *testing.T) {
	g := lifecycleGraph()
	full, err := Run(g, ParMBE, core.Options{Threads: 4})
	if err != nil {
		t.Fatal(err)
	}
	checkLeaks := faultinject.CheckGoroutines(t)
	inj := faultinject.New(11)
	inj.PanicAt(SiteParMBETask, 500)
	res, err := Run(g, ParMBE, core.Options{Threads: 4, FaultHook: inj.Hook()})
	if !errors.Is(err, core.ErrPanic) {
		t.Fatalf("err = %v, want wrapping core.ErrPanic", err)
	}
	if res.StopReason != core.StopPanic {
		t.Fatalf("StopReason = %v, want StopPanic", res.StopReason)
	}
	if res.Count <= 0 || res.Count >= full.Count {
		t.Fatalf("partial count %d, want in (0, %d)", res.Count, full.Count)
	}
	checkLeaks()
}

func TestGMBEWarpPanicMidRun(t *testing.T) {
	g := lifecycleGraph()
	full, err := Run(g, GMBE, core.Options{Threads: 2})
	if err != nil {
		t.Fatal(err)
	}
	checkLeaks := faultinject.CheckGoroutines(t)
	inj := faultinject.New(13)
	inj.PanicAt(SiteGMBETask, 500)
	res, err := Run(g, GMBE, core.Options{Threads: 2, FaultHook: inj.Hook()})
	if !errors.Is(err, core.ErrPanic) {
		t.Fatalf("err = %v, want wrapping core.ErrPanic", err)
	}
	if res.StopReason != core.StopPanic {
		t.Fatalf("StopReason = %v, want StopPanic", res.StopReason)
	}
	if res.Count <= 0 || res.Count >= full.Count {
		t.Fatalf("partial count %d, want in (0, %d)", res.Count, full.Count)
	}
	checkLeaks()
}

func TestSerialBaselinePanicInHandlerRecovered(t *testing.T) {
	g := lifecycleGraph()
	for _, alg := range slices.Concat(serialAlgorithms, []Algorithm{BBK}) {
		n := 0
		res, err := Run(g, alg, core.Options{
			OnBiclique: func(L, R []int32) {
				n++
				if n == 5 {
					panic("handler boom")
				}
			},
		})
		if !errors.Is(err, core.ErrPanic) {
			t.Fatalf("%s: err = %v, want wrapping core.ErrPanic", alg, err)
		}
		if res.StopReason != core.StopPanic {
			t.Fatalf("%s: StopReason = %v, want StopPanic", alg, res.StopReason)
		}
		if res.Count != 5 {
			t.Fatalf("%s: partial count %d, want 5", alg, res.Count)
		}
	}
}

func TestBaselinesPreCanceledContext(t *testing.T) {
	g := lifecycleGraph()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, alg := range allAlgorithms() {
		checkLeaks := faultinject.CheckGoroutines(t)
		res, err := Run(g, alg, core.Options{Threads: 2, Context: ctx})
		if err != nil {
			t.Fatalf("%s: %v", alg, err)
		}
		if res.StopReason != core.StopCanceled {
			t.Fatalf("%s: StopReason = %v, want StopCanceled", alg, res.StopReason)
		}
		if res.Count != 0 {
			t.Fatalf("%s: pre-canceled run emitted %d bicliques", alg, res.Count)
		}
		checkLeaks()
	}
}

func TestBaselinesMemoryBudget(t *testing.T) {
	g := lifecycleGraph()
	for _, alg := range allAlgorithms() {
		// 1 byte: the mark-table/representation base charges alone blow it.
		res, err := Run(g, alg, core.Options{Threads: 2, MaxMemoryBytes: 1})
		if err != nil {
			t.Fatalf("%s: %v", alg, err)
		}
		if res.StopReason != core.StopMemoryBudget {
			t.Fatalf("%s: StopReason = %v, want StopMemoryBudget", alg, res.StopReason)
		}
		// A generous budget must not trip.
		res, err = Run(g, alg, core.Options{Threads: 2, MaxMemoryBytes: 1 << 30})
		if err != nil || res.StopReason != core.StopNone {
			t.Fatalf("%s with 1GiB budget: StopReason = %v err = %v", alg, res.StopReason, err)
		}
	}
}

func TestBaselinesDeadlineStopReason(t *testing.T) {
	g := lifecycleGraph()
	expired := time.Now().Add(-time.Hour)
	for _, alg := range allAlgorithms() {
		res, err := Run(g, alg, core.Options{Threads: 2, Deadline: expired})
		if err != nil {
			t.Fatalf("%s: %v", alg, err)
		}
		if res.StopReason != core.StopDeadline {
			t.Fatalf("%s: StopReason = %v, want StopDeadline", alg, res.StopReason)
		}
	}
}

func TestSerialBaselineAllocFailInjection(t *testing.T) {
	g := lifecycleGraph()
	full, err := Run(g, FMBE, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	inj := faultinject.New(17)
	inj.FailAllocAt(SiteSerialNode, 500)
	res, err := Run(g, FMBE, core.Options{FaultHook: inj.Hook()})
	if err != nil {
		t.Fatal(err)
	}
	if res.StopReason != core.StopMemoryBudget {
		t.Fatalf("StopReason = %v, want StopMemoryBudget", res.StopReason)
	}
	if res.Count <= 0 || res.Count >= full.Count {
		t.Fatalf("partial count %d, want in (0, %d)", res.Count, full.Count)
	}
}

func TestBBKAllocFailInjection(t *testing.T) {
	g := lifecycleGraph()
	full, err := Run(g, BBK, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	inj := faultinject.New(19)
	inj.FailAllocAt(SiteBBKNode, 500)
	res, err := Run(g, BBK, core.Options{FaultHook: inj.Hook()})
	if err != nil {
		t.Fatal(err)
	}
	if res.StopReason != core.StopMemoryBudget {
		t.Fatalf("StopReason = %v, want StopMemoryBudget", res.StopReason)
	}
	if res.Count <= 0 || res.Count >= full.Count {
		t.Fatalf("partial count %d, want in (0, %d)", res.Count, full.Count)
	}
}

func TestBBKMidRunCancel(t *testing.T) {
	g := lifecycleGraph()
	full, err := Run(g, BBK, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if full.Count < 100 {
		t.Fatalf("degenerate lifecycle graph: %d bicliques", full.Count)
	}
	ctx, cancel := context.WithCancel(context.Background())
	n := int64(0)
	res, err := Run(g, BBK, core.Options{
		Context: ctx,
		OnBiclique: func(L, R []int32) {
			if n++; n == 50 {
				cancel()
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.StopReason != core.StopCanceled {
		t.Fatalf("StopReason = %v, want StopCanceled", res.StopReason)
	}
	if res.Count < 50 || res.Count >= full.Count {
		t.Fatalf("partial count %d, want in [50, %d)", res.Count, full.Count)
	}
}
