package dist

import (
	"context"
	"fmt"
	"math/rand"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	mbe "repro"
	"repro/internal/core"
	"repro/internal/difftest"
	"repro/internal/faultinject"
	"repro/internal/graph"
)

// testGraphPair builds the same random bipartite graph twice from one
// edge list: the internal form the dist workers run on, and the public
// form the single-process oracle runs on (mbe.Edge aliases graph.Edge,
// and FromEdges collapses duplicates identically on both paths).
func testGraphPair(t testing.TB, seed int64, nu, nv, m int) (*graph.Bipartite, *mbe.Graph) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	edges := make([]graph.Edge, m)
	for i := range edges {
		edges[i] = graph.Edge{U: int32(rng.Intn(nu)), V: int32(rng.Intn(nv))}
	}
	g, err := graph.FromEdges(nu, nv, edges)
	if err != nil {
		t.Fatal(err)
	}
	pub, err := mbe.FromEdges(nu, nv, edges)
	if err != nil {
		t.Fatal(err)
	}
	return g, pub
}

// oracleDigest runs the same (algorithm, ordering, seed) single-process
// through the public API and digests the output in the original id
// space — the ground truth every cluster run must reproduce exactly.
func oracleDigest(t *testing.T, pub *mbe.Graph, algo, ordering string, seed int64) difftest.Digest {
	t.Helper()
	alg, err := mbe.ParseAlgorithm(algo)
	if err != nil {
		t.Fatal(err)
	}
	ord, err := mbe.ParseOrdering(ordering)
	if err != nil {
		t.Fatal(err)
	}
	var d difftest.Digest
	if _, err := mbe.Enumerate(pub, mbe.Options{
		Algorithm: alg, Ordering: ord, Seed: seed,
		OnBiclique: d.Observe,
	}); err != nil {
		t.Fatal(err)
	}
	return d
}

// runCluster drives n in-process workers against c's HTTP handler until
// every one of them exits (the run completed or ctx gave up) and returns
// their errors.
func runCluster(ctx context.Context, t *testing.T, c *Coordinator, n int, mk func(i int) WorkerOptions) []error {
	t.Helper()
	ts := httptest.NewServer(c.Handler())
	defer ts.Close()
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		opts := mk(i)
		opts.Coord = ts.URL
		if opts.ID == "" {
			opts.ID = fmt.Sprintf("w%d", i)
		}
		if opts.PollInterval == 0 {
			opts.PollInterval = 10 * time.Millisecond
		}
		if opts.FlushInterval == 0 {
			opts.FlushInterval = 5 * time.Millisecond
		}
		w := NewWorker(opts)
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs[i] = w.Run(ctx)
		}(i)
	}
	wg.Wait()
	return errs
}

// TestClusterMatchesSingleProcess is the tentpole's correctness anchor:
// a 3-worker in-process cluster over every supported engine family and
// ordering must produce a global digest byte-identical to a
// single-process run of the same configuration.
func TestClusterMatchesSingleProcess(t *testing.T) {
	g, pub := testGraphPair(t, 7, 50, 70, 700)
	cases := []struct {
		algo, ordering string
		seed           int64
		threads        int
	}{
		{algo: "AdaMBE", ordering: "asc"},
		{algo: "ParAdaMBE", ordering: "rand", seed: 42, threads: 4},
		{algo: "AdaMBE-BIT", ordering: "none"},
		{algo: "BBK", ordering: "uc"},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.algo+"/"+tc.ordering, func(t *testing.T) {
			t.Parallel()
			want := oracleDigest(t, pub, tc.algo, tc.ordering, tc.seed)

			spec := Spec{Algorithm: tc.algo, Ordering: tc.ordering, OrderSeed: tc.seed}.WithGraph(g)
			c, err := NewCoordinator(CoordOptions{Spec: spec, Dir: t.TempDir(), Ranges: 7})
			if err != nil {
				t.Fatal(err)
			}
			c.Start()
			defer c.Stop()

			ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
			defer cancel()
			errs := runCluster(ctx, t, c, 3, func(i int) WorkerOptions {
				return WorkerOptions{Graph: g, Threads: tc.threads}
			})
			for i, err := range errs {
				if err != nil {
					t.Errorf("worker %d: %v", i, err)
				}
			}

			got, complete := c.GlobalDigest()
			if !complete {
				t.Fatal("run did not complete")
			}
			if !got.Equal(want) || got.Count != want.Count {
				t.Errorf("cluster digest %v (count %d) != single-process %v (count %d)",
					got, got.Count, want, want.Count)
			}
			p := c.Progress()
			if !p.Complete || p.RootsDone != p.RootsTotal || p.RangesDone != p.RangesTotal || p.Bicliques != want.Count {
				t.Errorf("progress after completion: %+v", p)
			}
		})
	}
}

// TestWorkerKilledMidRangeResumesFromWatermark is the failure half of
// the anchor: a deliberately slow worker is killed mid-range after
// streaming partial watermarks; the janitor expires its lease, a healthy
// worker picks the range up from the confirmed watermark, and the final
// digest still equals the single-process run — which fails on any
// duplicated (re-enumerated below the watermark) or missing biclique.
func TestWorkerKilledMidRangeResumesFromWatermark(t *testing.T) {
	g, pub := testGraphPair(t, 11, 40, 60, 600)
	want := oracleDigest(t, pub, "AdaMBE", "asc", 0)

	spec := Spec{Algorithm: "AdaMBE", Ordering: "asc"}.WithGraph(g)
	c, err := NewCoordinator(CoordOptions{
		Spec: spec, Dir: t.TempDir(), Ranges: 2,
		LeaseTTL: 250 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	c.Start()
	defer c.Stop()
	ts := httptest.NewServer(c.Handler())
	defer ts.Close()

	// The victim crawls: a delay at every root visit keeps it mid-range
	// long enough to observe streamed watermarks before the kill.
	inj := faultinject.New(1)
	inj.DelayEvery(core.SiteRoot, 1, 3*time.Millisecond)
	victimCtx, killVictim := context.WithCancel(context.Background())
	defer killVictim()
	victim := NewWorker(WorkerOptions{
		Coord: ts.URL, ID: "victim", Graph: g,
		PollInterval: 5 * time.Millisecond, FlushInterval: 2 * time.Millisecond,
		FaultHook: inj.Hook(),
	})
	victimDone := make(chan error, 1)
	go func() { victimDone <- victim.Run(victimCtx) }()

	// Wait until some range has confirmed partial progress, then kill.
	deadline := time.Now().Add(30 * time.Second)
	killed, wmKill := -1, int32(0)
	for killed < 0 {
		if time.Now().After(deadline) {
			t.Fatal("no range ever streamed a partial watermark")
		}
		for id := 0; id < 2; id++ {
			wm, state, ok := c.RangeWatermark(id)
			if !ok {
				t.Fatalf("range %d missing", id)
			}
			start, end := rangeBounds(c, id)
			if state == stateLeased && wm > start && wm < end {
				killed, wmKill = id, wm
				break
			}
		}
		time.Sleep(time.Millisecond)
	}
	killVictim()
	if err := <-victimDone; err == nil {
		t.Fatal("killed worker reported success")
	}

	// The healthy worker finishes the run, re-leasing the victim's range
	// once the janitor expires it.
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	healer := NewWorker(WorkerOptions{
		Coord: ts.URL, ID: "healer", Graph: g,
		PollInterval: 10 * time.Millisecond, FlushInterval: 2 * time.Millisecond,
	})
	if err := healer.Run(ctx); err != nil {
		t.Fatalf("healer: %v", err)
	}

	got, complete := c.GlobalDigest()
	if !complete {
		t.Fatal("run did not complete")
	}
	if !got.Equal(want) || got.Count != want.Count {
		t.Errorf("digest after kill+reissue %v (count %d) != single-process %v (count %d)",
			got, got.Count, want, want.Count)
	}
	if wm, state, _ := c.RangeWatermark(killed); state != stateDone || wm < wmKill {
		t.Errorf("killed range %d: state %s watermark %d, want done at >= %d (watermark regressed)",
			killed, state, wm, wmKill)
	}
	if v := c.leasesExpired.Value(); v < 1 {
		t.Errorf("dist_leases_expired_total = %d, want >= 1", v)
	}
	if v := c.leasesReissued.Value(); v < 1 {
		t.Errorf("dist_leases_reissued_total = %d, want >= 1", v)
	}
}

func rangeBounds(c *Coordinator, id int) (start, end int32) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ranges[id].start, c.ranges[id].end
}

// TestCoordinatorRestartResumesRun kills the coordinator (abandons it
// mid-run, manifest on disk) and finishes the run under a recovered
// coordinator: persisted watermarks count, nothing double-merges.
func TestCoordinatorRestartResumesRun(t *testing.T) {
	g, pub := testGraphPair(t, 13, 40, 60, 600)
	want := oracleDigest(t, pub, "AdaMBE", "asc", 0)
	dir := t.TempDir()
	spec := Spec{Algorithm: "AdaMBE", Ordering: "asc"}.WithGraph(g)

	c1, err := NewCoordinator(CoordOptions{Spec: spec, Dir: dir, Ranges: 4, LeaseTTL: time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	ts1 := httptest.NewServer(c1.Handler())
	inj := faultinject.New(2)
	inj.DelayEvery(core.SiteRoot, 1, 2*time.Millisecond)
	wctx, wcancel := context.WithCancel(context.Background())
	w1 := NewWorker(WorkerOptions{
		Coord: ts1.URL, ID: "pre-crash", Graph: g,
		PollInterval: 5 * time.Millisecond, FlushInterval: 2 * time.Millisecond,
		FaultHook: inj.Hook(),
	})
	w1done := make(chan error, 1)
	go func() { w1done <- w1.Run(wctx) }()

	deadline := time.Now().Add(30 * time.Second)
	for {
		if time.Now().After(deadline) {
			t.Fatal("no watermark progress before the simulated coordinator crash")
		}
		if p := c1.Progress(); p.RootsDone > 0 && !p.Complete {
			break
		}
		time.Sleep(time.Millisecond)
	}
	// Crash: tear the HTTP frontage down and abandon c1 un-stopped. The
	// worker's stream dies with it.
	ts1.Close()
	wcancel()
	<-w1done

	c2, err := NewCoordinator(CoordOptions{Spec: spec, Dir: dir, LeaseTTL: time.Minute})
	if err != nil {
		t.Fatalf("recovery: %v", err)
	}
	c2.Start()
	defer c2.Stop()
	if p := c2.Progress(); p.RootsDone == 0 {
		t.Error("recovered coordinator lost every persisted watermark")
	}

	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	errs := runCluster(ctx, t, c2, 2, func(i int) WorkerOptions {
		return WorkerOptions{Graph: g}
	})
	for i, err := range errs {
		if err != nil {
			t.Errorf("post-recovery worker %d: %v", i, err)
		}
	}
	got, complete := c2.GlobalDigest()
	if !complete {
		t.Fatal("recovered run did not complete")
	}
	if !got.Equal(want) || got.Count != want.Count {
		t.Errorf("digest after coordinator restart %v (count %d) != single-process %v (count %d)",
			got, got.Count, want, want.Count)
	}
}

// TestResumeAtRangeEndSealsWithoutEnumerating: a lease can legitimately
// resume at the range end — the previous attempt streamed every root's
// delta but died (or was fenced) before its done frame landed. The next
// worker must seal the range with an empty done frame instead of trying
// to enumerate an empty root range, or the run livelocks on re-issued
// leases that can never finish.
func TestResumeAtRangeEndSealsWithoutEnumerating(t *testing.T) {
	g, pub := testGraphPair(t, 17, 30, 40, 300)
	want := oracleDigest(t, pub, "AdaMBE", "asc", 0)

	spec := Spec{Algorithm: "AdaMBE", Ordering: "asc"}.WithGraph(g)
	c, err := NewCoordinator(CoordOptions{Spec: spec, Dir: t.TempDir(), Ranges: 1, LeaseTTL: time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(c.Handler())
	defer ts.Close()

	// Attempt 1 streams the whole range as one wm frame, then dies
	// before the done frame: watermark == end, state still leased.
	if _, ok, err := c.grantLease("crashed"); err != nil || !ok {
		t.Fatalf("no lease granted: %v", err)
	}
	end := int32(g.NV())
	if err := c.acceptFrame(0, 1, "crashed", Frame{Type: "wm", From: 0, To: end, Delta: &want}); err != nil {
		t.Fatal(err)
	}
	c.now = func() time.Time { return time.Now().Add(2 * time.Minute) }
	c.expireLeases()
	if wm, state, _ := c.RangeWatermark(0); state != statePending || wm != end {
		t.Fatalf("setup: state %s watermark %d, want pending at %d", state, wm, end)
	}

	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	w := NewWorker(WorkerOptions{
		Coord: ts.URL, ID: "sealer", Graph: g,
		PollInterval: 10 * time.Millisecond, FlushInterval: 5 * time.Millisecond,
	})
	if err := w.Run(ctx); err != nil {
		t.Fatalf("sealer: %v", err)
	}

	got, complete := c.GlobalDigest()
	if !complete {
		t.Fatal("run did not complete")
	}
	if !got.Equal(want) || got.Count != want.Count {
		t.Errorf("digest after empty-tail seal %v (count %d) != single-process %v (count %d)",
			got, got.Count, want, want.Count)
	}
}
