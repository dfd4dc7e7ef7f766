package core

import (
	"context"
	"errors"
	"sort"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/graph"
	"repro/internal/tle"
)

// schedTestGraphs is the graph set the scheduler equality tests sweep:
// random graphs from sparse to dense plus the structured shapes that
// stress spawning differently (stars spawn wide, chains spawn deep).
func schedTestGraphs(t *testing.T) map[string]*graph.Bipartite {
	return map[string]*graph.Bipartite{
		"paper":  graph.PaperExample(),
		"sparse": randomBipartite(t, 31, 120, 40, 300),
		"medium": randomBipartite(t, 32, 200, 60, 1500),
		"dense":  randomBipartite(t, 33, 60, 25, 1100),
		"star": mustAdj(t, 6, [][]int32{
			{0}, {0}, {0, 1, 2, 3, 4, 5},
		}),
		"crossbars": mustAdj(t, 8, [][]int32{
			{0, 1, 2, 3}, {2, 3, 4, 5}, {4, 5, 6, 7}, {0, 1, 6, 7}, {0, 2, 4, 6},
		}),
	}
}

// collectParallel drives enumerateParallel directly (Enumerate routes
// Threads ≤ 1 to the serial engine, but the scheduler must be exercised at
// width 1 too) and returns the sorted canonical keys.
func collectParallel(t *testing.T, g *graph.Bipartite, opts Options) ([]string, Result) {
	t.Helper()
	var mu sync.Mutex
	var keys []string
	opts.OnBiclique = func(L, R []int32) {
		mu.Lock()
		keys = append(keys, BicliqueKey(L, R))
		mu.Unlock()
	}
	res, err := enumerateParallel(g, opts, &tle.Shared{})
	if err != nil {
		t.Fatal(err)
	}
	sort.Strings(keys)
	return keys, res
}

// TestSchedulerCountsMatchSerial is the work-stealing correctness bar: for
// every test graph, every pool width and τ, counts and the exact biclique
// set must match the serial engine. At the default τ every root of the
// random graphs is promoted to a bitmap and never offered to the
// scheduler; at τ = 4 their roots and inner nodes take the list path, and
// each random graph must detach subtrees beyond the root seeds.
func TestSchedulerCountsMatchSerial(t *testing.T) {
	for name, g := range schedTestGraphs(t) {
		want, serial, err := CollectKeys(g, Options{Variant: Ada})
		if err != nil {
			t.Fatal(err)
		}
		for _, tau := range []int{0, 4} {
			var detached int64
			for _, threads := range []int{1, 2, 4, 8} {
				var m Metrics
				keys, res := collectParallel(t, g, Options{Variant: Ada, Tau: tau, Threads: threads, Metrics: &m})
				if res.Count != serial.Count {
					t.Fatalf("%s tau=%d threads=%d: count %d, serial %d", name, tau, threads, res.Count, serial.Count)
				}
				if !keysEqual(keys, want) {
					t.Fatalf("%s tau=%d threads=%d: biclique sets differ", name, tau, threads)
				}
				if m.TasksSpawned < int64(threads) {
					t.Fatalf("%s tau=%d threads=%d: TasksSpawned = %d, want ≥ %d (the seeds)", name, tau, threads, m.TasksSpawned, threads)
				}
				if m.MaxQueueDepth < 1 || m.MaxQueueDepth > int64(parallelQueueCap) {
					t.Fatalf("%s tau=%d threads=%d: MaxQueueDepth = %d outside [1, %d]", name, tau, threads, m.MaxQueueDepth, parallelQueueCap)
				}
				detached += m.TasksSpawned - int64(threads)
			}
			// The random graphs (300 edges and more) detach dozens of
			// subtrees at τ = 4; the structured ones are too small to.
			if tau == 4 && g.NumEdges() >= 300 && detached == 0 {
				t.Errorf("%s tau=4: no pool width detached a subtree beyond its root seeds", name)
			}
		}
	}
}

// TestQueueSaturationInlineFallback shrinks the per-worker deque to a
// single slot so nearly every spawn offer is declined: the engines must
// recurse inline (TasksInlined grows) and still enumerate the exact set.
// τ sits below the roots' degrees: a promoted root is never offered.
func TestQueueSaturationInlineFallback(t *testing.T) {
	old := parallelQueueCap
	parallelQueueCap = 1
	defer func() { parallelQueueCap = old }()

	g := randomBipartite(t, 34, 200, 60, 1500)
	want, serial, err := CollectKeys(g, Options{Variant: Ada})
	if err != nil {
		t.Fatal(err)
	}
	var m Metrics
	keys, res := collectParallel(t, g, Options{Variant: Ada, Tau: 4, Threads: 4, Metrics: &m})
	if res.Count != serial.Count || !keysEqual(keys, want) {
		t.Fatalf("saturated queue: count %d, serial %d", res.Count, serial.Count)
	}
	if m.TasksInlined == 0 {
		t.Fatal("single-slot deques never forced an inline fallback")
	}
	if m.MaxQueueDepth > 1 {
		t.Fatalf("MaxQueueDepth = %d with capacity 1", m.MaxQueueDepth)
	}
}

// TestEmissionExactlyOnce checks the delivery contract in both emission
// modes: every biclique of the serial reference arrives exactly once, and
// Result.Count equals the number of handler calls.
func TestEmissionExactlyOnce(t *testing.T) {
	g := randomBipartite(t, 35, 150, 50, 1000)
	want, serial, err := CollectKeys(g, Options{Variant: Ada})
	if err != nil {
		t.Fatal(err)
	}
	for _, unordered := range []bool{false, true} {
		for _, threads := range []int{2, 8} {
			var mu sync.Mutex
			seen := make(map[string]int, len(want))
			delivered := 0
			opts := Options{
				Variant:       Ada,
				Threads:       threads,
				UnorderedEmit: unordered,
				OnBiclique: func(L, R []int32) {
					mu.Lock()
					seen[BicliqueKey(L, R)]++
					delivered++
					mu.Unlock()
				},
			}
			res, err := enumerateParallel(g, opts, &tle.Shared{})
			if err != nil {
				t.Fatal(err)
			}
			if res.Count != serial.Count {
				t.Fatalf("unordered=%v threads=%d: count %d, serial %d", unordered, threads, res.Count, serial.Count)
			}
			if int64(delivered) != res.Count {
				t.Fatalf("unordered=%v threads=%d: %d deliveries for count %d", unordered, threads, delivered, res.Count)
			}
			for _, k := range want {
				if seen[k] != 1 {
					t.Fatalf("unordered=%v threads=%d: biclique %q delivered %d times", unordered, threads, k, seen[k])
				}
			}
		}
	}
}

// TestEmissionExactlyOnceUnderCancellation cancels mid-run from inside the
// handler: the run must stop with StopCanceled, and the partial count must
// still equal the deliveries — bicliques buffered in the shards at
// cancellation are flushed, never dropped, never double-delivered.
func TestEmissionExactlyOnceUnderCancellation(t *testing.T) {
	g := randomBipartite(t, 36, 200, 60, 1500)
	full, err := Enumerate(g, Options{Variant: Ada})
	if err != nil {
		t.Fatal(err)
	}
	for _, unordered := range []bool{false, true} {
		ctx, cancel := context.WithCancel(context.Background())
		var mu sync.Mutex
		seen := make(map[string]int)
		var delivered atomic.Int64
		opts := Options{
			Variant:       Ada,
			Threads:       4,
			Context:       ctx,
			UnorderedEmit: unordered,
			OnBiclique: func(L, R []int32) {
				mu.Lock()
				seen[BicliqueKey(L, R)]++
				mu.Unlock()
				if delivered.Add(1) == 40 {
					cancel()
				}
			},
		}
		res, err := enumerateParallel(g, opts, &tle.Shared{})
		cancel()
		if err != nil {
			t.Fatal(err)
		}
		if res.StopReason != StopCanceled {
			t.Fatalf("unordered=%v: StopReason = %v, want StopCanceled", unordered, res.StopReason)
		}
		if res.Count != delivered.Load() {
			t.Fatalf("unordered=%v: count %d ≠ %d deliveries", unordered, res.Count, delivered.Load())
		}
		if res.Count >= full.Count {
			t.Fatalf("unordered=%v: canceled run delivered the full set (%d)", unordered, res.Count)
		}
		for k, n := range seen {
			if n != 1 {
				t.Fatalf("unordered=%v: biclique %q delivered %d times", unordered, k, n)
			}
		}
	}
}

// TestEmissionHandlerPanicReconciled panics inside the handler mid-run:
// the run must surface ErrPanic, and the partial count must be reconciled
// down to exactly the bicliques the handler actually received (buffered
// pairs stranded by the dead shard are subtracted).
func TestEmissionHandlerPanicReconciled(t *testing.T) {
	g := randomBipartite(t, 37, 200, 60, 1500)
	var delivered atomic.Int64
	opts := Options{
		Variant: Ada,
		Threads: 4,
		OnBiclique: func(L, R []int32) {
			if delivered.Add(1) == 200 {
				panic("handler boom")
			}
		},
	}
	res, err := enumerateParallel(g, opts, &tle.Shared{})
	if err == nil || !errors.Is(err, ErrPanic) {
		t.Fatalf("err = %v, want ErrPanic", err)
	}
	if res.StopReason != StopPanic {
		t.Fatalf("StopReason = %v, want StopPanic", res.StopReason)
	}
	if res.Count > delivered.Load() {
		t.Fatalf("count %d exceeds %d actual deliveries", res.Count, delivered.Load())
	}
	if res.Count == 0 {
		t.Fatal("no partial count survived the handler panic")
	}
}

// TestMetricsMergedUnderCancellation cancels a parallel run mid-flight and
// checks that every worker's gathered metrics still reach the caller: the
// drain runs as a deferred step of the worker body, through the same
// flush/reconcile/merge path as a normal exit, so the merged counters must
// cover at least every biclique the handler saw. (A dropped merge would
// leave NodesMaximal short of the delivered count.)
func TestMetricsMergedUnderCancellation(t *testing.T) {
	g := randomBipartite(t, 44, 200, 60, 1500)
	for _, unordered := range []bool{false, true} {
		ctx, cancel := context.WithCancel(context.Background())
		var delivered atomic.Int64
		var m Metrics
		opts := Options{
			Variant:       Ada,
			Threads:       4,
			Context:       ctx,
			UnorderedEmit: unordered,
			Metrics:       &m,
			OnBiclique: func(L, R []int32) {
				if delivered.Add(1) == 60 {
					cancel()
				}
			},
		}
		res, err := enumerateParallel(g, opts, &tle.Shared{})
		cancel()
		if err != nil {
			t.Fatal(err)
		}
		if res.StopReason != StopCanceled {
			t.Fatalf("unordered=%v: StopReason = %v, want StopCanceled", unordered, res.StopReason)
		}
		if res.Count == 0 {
			t.Fatalf("unordered=%v: no partial count", unordered)
		}
		// Every emitted biclique is a maximal node some worker generated and
		// instrumented before emitting; a lost merge breaks this bound.
		if m.NodesMaximal < res.Count {
			t.Fatalf("unordered=%v: merged NodesMaximal %d < count %d — a worker's metrics were dropped",
				unordered, m.NodesMaximal, res.Count)
		}
		if m.NodesGenerated < m.NodesMaximal {
			t.Fatalf("unordered=%v: NodesGenerated %d < NodesMaximal %d",
				unordered, m.NodesGenerated, m.NodesMaximal)
		}
		if res.Count != delivered.Load() {
			t.Fatalf("unordered=%v: count %d ≠ %d deliveries", unordered, res.Count, delivered.Load())
		}
	}
}
