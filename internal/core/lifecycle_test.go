package core

import (
	"context"
	"errors"
	"testing"
	"time"

	"repro/internal/faultinject"
	"repro/internal/graph"
)

// lifecycleGraph returns a graph whose AdaMBE enumeration comfortably
// exceeds one amortized check quantum (~12k maximal bicliques), so mid-run
// stop conditions are always observed before the run finishes.
func lifecycleGraph(t testing.TB) *graph.Bipartite {
	t.Helper()
	return randomBipartite(t, 5, 300, 120, 4000)
}

func fullCount(t *testing.T, g *graph.Bipartite) int64 {
	t.Helper()
	res, err := Enumerate(g, Options{Variant: Ada})
	if err != nil {
		t.Fatal(err)
	}
	if res.Count < 5000 {
		t.Fatalf("lifecycle graph too small for mid-run stop tests: %d bicliques", res.Count)
	}
	return res.Count
}

// TestParAdaMBEWorkerPanicMidRun is the headline lifecycle guarantee: a
// worker panicking mid-enumeration must surface as a clean error (wrapping
// ErrPanic) with a partial monotone count, not a crash or a hang, and must
// leak no goroutines.
func TestParAdaMBEWorkerPanicMidRun(t *testing.T) {
	g := lifecycleGraph(t)
	full := fullCount(t, g)

	checkLeaks := faultinject.CheckGoroutines(t)
	inj := faultinject.New(42)
	inj.PanicAt(SiteNode, 2000)
	// Tau: 1 keeps the enumeration on the LN path (SiteNode fires per
	// candidate expansion); the default τ would route these small nodes
	// through the bitmap procedure instead.
	res, err := Enumerate(g, Options{Variant: Ada, Tau: 1, Threads: 4, FaultHook: inj.Hook()})
	if err == nil {
		t.Fatal("worker panic did not surface as an error")
	}
	if !errors.Is(err, ErrPanic) {
		t.Fatalf("err = %v, want wrapping ErrPanic", err)
	}
	if res.StopReason != StopPanic {
		t.Fatalf("StopReason = %v, want StopPanic", res.StopReason)
	}
	if res.Count <= 0 || res.Count >= full {
		t.Fatalf("partial count %d, want in (0, %d)", res.Count, full)
	}
	checkLeaks()
}

func TestSerialPanicInHandlerRecovered(t *testing.T) {
	g := lifecycleGraph(t)
	full := fullCount(t, g)
	for _, v := range []Variant{Baseline, LN, BIT, Ada} {
		n := 0
		res, err := Enumerate(g, Options{
			Variant: v,
			OnBiclique: func(L, R []int32) {
				n++
				if n == 5 {
					panic("handler boom")
				}
			},
		})
		if !errors.Is(err, ErrPanic) {
			t.Fatalf("%v: err = %v, want wrapping ErrPanic", v, err)
		}
		if res.StopReason != StopPanic {
			t.Fatalf("%v: StopReason = %v, want StopPanic", v, res.StopReason)
		}
		if res.Count != 5 || res.Count >= full {
			t.Fatalf("%v: partial count %d, want 5", v, res.Count)
		}
	}
}

func TestContextCancelMidRun(t *testing.T) {
	g := lifecycleGraph(t)
	full := fullCount(t, g)
	for _, threads := range []int{0, 4} {
		ctx, cancel := context.WithCancel(context.Background())
		var n int64
		res, err := Enumerate(g, Options{
			Variant: Ada, Threads: threads, Context: ctx,
			OnBiclique: func(L, R []int32) {
				if n++; n == 100 {
					cancel()
				}
			},
		})
		cancel()
		if err != nil {
			t.Fatalf("threads=%d: %v", threads, err)
		}
		if res.StopReason != StopCanceled {
			t.Fatalf("threads=%d: StopReason = %v, want StopCanceled", threads, res.StopReason)
		}
		if res.Count < 100 || res.Count >= full {
			t.Fatalf("threads=%d: partial count %d, want in [100, %d)", threads, res.Count, full)
		}
	}
}

func TestPreCanceledContextStopsBeforeWork(t *testing.T) {
	g := lifecycleGraph(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, o := range []Options{
		{Variant: Baseline, Context: ctx},
		{Variant: LN, Context: ctx},
		{Variant: BIT, Context: ctx},
		{Variant: Ada, Context: ctx},
		{Variant: Ada, Threads: 4, Context: ctx},
	} {
		res, err := Enumerate(g, o)
		if err != nil {
			t.Fatalf("%s: %v", cfgName(o), err)
		}
		if res.StopReason != StopCanceled {
			t.Fatalf("%s: StopReason = %v, want StopCanceled", cfgName(o), res.StopReason)
		}
		if res.Count != 0 {
			t.Fatalf("%s: pre-canceled run emitted %d bicliques", cfgName(o), res.Count)
		}
	}
}

func TestMemoryBudgetStopsRun(t *testing.T) {
	g := lifecycleGraph(t)
	for _, threads := range []int{0, 4} {
		// 1 byte: the engine's base stamp-table charge alone blows it, so
		// the run must stop on its first poll.
		res, err := Enumerate(g, Options{Variant: Ada, Threads: threads, MaxMemoryBytes: 1})
		if err != nil {
			t.Fatalf("threads=%d: %v", threads, err)
		}
		if res.StopReason != StopMemoryBudget {
			t.Fatalf("threads=%d: StopReason = %v, want StopMemoryBudget", threads, res.StopReason)
		}
	}
	// A generous budget must not trip.
	res, err := Enumerate(g, Options{Variant: Ada, MaxMemoryBytes: 1 << 30})
	if err != nil || res.StopReason != StopNone {
		t.Fatalf("1GiB budget: StopReason = %v err = %v, want clean run", res.StopReason, err)
	}
}

func TestAllocFailInjectionDegradesLikeBudget(t *testing.T) {
	g := lifecycleGraph(t)
	full := fullCount(t, g)
	inj := faultinject.New(7)
	inj.FailAllocAt(SiteNode, 500)
	res, err := Enumerate(g, Options{Variant: Ada, Tau: 1, FaultHook: inj.Hook()})
	if err != nil {
		t.Fatal(err)
	}
	if res.StopReason != StopMemoryBudget {
		t.Fatalf("StopReason = %v, want StopMemoryBudget", res.StopReason)
	}
	if res.Count <= 0 || res.Count >= full {
		t.Fatalf("partial count %d, want in (0, %d)", res.Count, full)
	}
	if inj.Visits(SiteNode) < 500 {
		t.Fatalf("site visited %d times, want ≥ 500", inj.Visits(SiteNode))
	}
}

func TestDeadlineStopReasonAllVariants(t *testing.T) {
	g := lifecycleGraph(t)
	expired := time.Now().Add(-time.Hour)
	for _, o := range []Options{
		{Variant: Baseline, Deadline: expired},
		{Variant: LN, Deadline: expired},
		{Variant: BIT, Deadline: expired},
		{Variant: Ada, Deadline: expired},
		{Variant: Ada, Threads: 4, Deadline: expired},
	} {
		res, err := Enumerate(g, o)
		if err != nil {
			t.Fatalf("%s: %v", cfgName(o), err)
		}
		if res.StopReason != StopDeadline {
			t.Fatalf("%s: StopReason = %v, want StopDeadline", cfgName(o), res.StopReason)
		}
	}
}

func TestParallelCleanRunLeaksNothing(t *testing.T) {
	g := lifecycleGraph(t)
	checkLeaks := faultinject.CheckGoroutines(t)
	res, err := Enumerate(g, Options{Variant: Ada, Threads: 4})
	if err != nil || res.StopReason != StopNone {
		t.Fatalf("StopReason = %v err = %v", res.StopReason, err)
	}
	checkLeaks()
}

// TestStoppedRootEntersNoBitmap fails the first root's SiteRoot step: the
// root still completes its walk, but like any node reached after a stop
// it must not enter the bitwise procedure, so no SiteBitmap step, no
// promotion and no bitmap follow. Without the failure that root is
// promoted at once, so the check is not vacuous.
func TestStoppedRootEntersNoBitmap(t *testing.T) {
	g := mustAdj(t, 8, [][]int32{
		{0, 1, 2, 3}, {2, 3, 4, 5}, {4, 5, 6, 7}, {0, 1, 6, 7}, {0, 2, 4, 6},
	})
	for _, fail := range []bool{false, true} {
		var sites []string
		hook := func(site string) error {
			sites = append(sites, site)
			if fail && site == SiteRoot {
				return errors.New("injected")
			}
			return nil
		}
		var m Metrics
		res, err := Enumerate(g, Options{Variant: Ada, FaultHook: hook, Metrics: &m})
		if err != nil {
			t.Fatal(err)
		}
		if !fail {
			if len(sites) < 2 || sites[0] != SiteRoot || sites[1] != SiteBitmap {
				t.Fatalf("clean run: fault steps %v, want the first root promoted at once", sites)
			}
			continue
		}
		if res.StopReason != StopMemoryBudget {
			t.Fatalf("StopReason = %v, want StopMemoryBudget", res.StopReason)
		}
		if len(sites) != 1 || m.BitPromotions != 0 || m.BitmapsCreated != 0 {
			t.Fatalf("stopped run: fault steps %v, %d promotions, %d bitmaps; want only the root's step", sites, m.BitPromotions, m.BitmapsCreated)
		}
	}
}

// TestSpawnSiteFaultInjection exercises the detach/spawn instrumentation
// point: a simulated allocation failure while detaching a subtree must
// degrade the run, not corrupt it. A promoted root is never offered to
// the scheduler, so τ sits below the roots' degrees to keep them on the
// list path, which offers its subtrees.
func TestSpawnSiteFaultInjection(t *testing.T) {
	g := lifecycleGraph(t)
	checkLeaks := faultinject.CheckGoroutines(t)
	inj := faultinject.New(3)
	inj.FailAllocAt(SiteSpawn, 2)
	res, err := Enumerate(g, Options{Variant: Ada, Tau: 4, Threads: 4, FaultHook: inj.Hook()})
	if err != nil {
		t.Fatal(err)
	}
	if res.StopReason != StopMemoryBudget {
		t.Fatalf("StopReason = %v, want StopMemoryBudget", res.StopReason)
	}
	checkLeaks()
}
