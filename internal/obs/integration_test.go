package obs_test

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/obs"
)

func randomBipartite(t testing.TB, seed int64, nu, nv, m int) *graph.Bipartite {
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
	return g
}

func fetchProgress(t *testing.T, url string) (obs.Snapshot, int) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	var snap obs.Snapshot
	if resp.StatusCode == http.StatusOK {
		if err := json.Unmarshal(body, &snap); err != nil {
			t.Fatalf("bad progress JSON: %v\n%s", err, body)
		}
	}
	return snap, resp.StatusCode
}

// TestLiveProgressDuringRun is the tentpole's acceptance test: while a
// parallel enumeration is in flight, /debug/progress must expose non-empty,
// monotonically increasing node/biclique counts and per-worker states —
// without stopping or finishing the run.
func TestLiveProgressDuringRun(t *testing.T) {
	g := randomBipartite(t, 7, 400, 400, 14000)

	addr, shutdown, err := obs.ServeDebug("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer shutdown()
	url := fmt.Sprintf("http://%s/debug/progress", addr)

	rec := obs.NewRecorder(obs.RunInfo{
		Algorithm: "ParAdaMBE", Dataset: "live-test", Threads: 4,
		NU: g.NU(), NV: g.NV(), Edges: g.NumEdges(),
	})
	obs.Publish(rec)
	defer obs.Unpublish(rec)

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan core.Result, 1)
	go func() {
		// The throttled handler stretches the run so the poller reliably
		// observes it mid-flight.
		res, _ := core.Enumerate(g, core.Options{
			Variant: core.Ada, Threads: 4, Context: ctx, Obs: rec,
			OnBiclique: func(L, R []int32) { time.Sleep(50 * time.Microsecond) },
		})
		done <- res
	}()

	// Poll until the run is visibly making progress.
	var first obs.Snapshot
	deadline := time.Now().Add(10 * time.Second)
	for {
		snap, code := fetchProgress(t, url)
		if code == http.StatusOK && snap.Nodes > 0 && snap.Phase == "enumerate" {
			first = snap
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("run never became visible via /debug/progress (code %d, snap %+v)", code, snap)
		}
		time.Sleep(2 * time.Millisecond)
	}
	if first.RunID == "" || first.Algorithm != "ParAdaMBE" || first.Dataset != "live-test" {
		t.Fatalf("first poll missing identity: %+v", first)
	}
	if len(first.Workers) != 4 {
		t.Fatalf("worker rows = %d, want 4", len(first.Workers))
	}
	valid := map[string]bool{"idle": true, "busy": true, "steal": true, "park": true, "done": true}
	for _, w := range first.Workers {
		if !valid[w.State] {
			t.Fatalf("invalid worker state %q in %+v", w.State, first.Workers)
		}
	}

	// Second poll mid-run: counters must be monotone, and strictly advance
	// within the window while workers are enumerating.
	var second obs.Snapshot
	for {
		snap, code := fetchProgress(t, url)
		if code != http.StatusOK || snap.RunID != first.RunID {
			t.Fatalf("run disappeared mid-poll (code %d)", code)
		}
		if snap.Nodes < first.Nodes || snap.Bicliques < first.Bicliques || snap.RootDone < first.RootDone {
			t.Fatalf("progress regressed: %+v -> %+v", first, snap)
		}
		if snap.Nodes > first.Nodes && snap.Phase == "enumerate" {
			second = snap
			break
		}
		if snap.Phase == "done" || time.Now().After(deadline) {
			// The run outpaced the poller; monotonicity was still verified.
			second = snap
			break
		}
		time.Sleep(2 * time.Millisecond)
	}
	if second.ElapsedMS < first.ElapsedMS {
		t.Fatalf("elapsed went backwards: %v -> %v", first.ElapsedMS, second.ElapsedMS)
	}

	// Cancel and confirm the terminal snapshot is still readable with the
	// final stop reason.
	cancel()
	res := <-done
	final := rec.Snapshot()
	if final.Phase != "done" {
		t.Fatalf("phase after run = %q, want done", final.Phase)
	}
	if final.StopReason != res.StopReason.String() {
		t.Fatalf("final stop reason %q != result %q", final.StopReason, res.StopReason)
	}
	if final.Bicliques < res.Count {
		t.Fatalf("probe bicliques %d < delivered count %d", final.Bicliques, res.Count)
	}
}

// TestSerialRunPopulatesRecorder: the live view and the merged Metrics
// are filled from the same per-worker counters, so at the end of a run
// they agree field for field — serial variants (worker 0 carries the whole
// run) and ParAdaMBE alike — and the root frontier reaches |V|. Attaching
// the Recorder changes no schedule-independent Metrics field.
func TestSerialRunPopulatesRecorder(t *testing.T) {
	g := randomBipartite(t, 11, 120, 120, 1800)
	for _, tc := range []struct {
		name    string
		variant core.Variant
		tau     int
		threads int
	}{
		{"Baseline", core.Baseline, 0, 1},
		{"AdaMBE-LN", core.LN, 0, 1},
		{"AdaMBE-BIT", core.BIT, 0, 1},
		{"AdaMBE/tau64", core.Ada, 64, 1},
		{"AdaMBE/tau128", core.Ada, 128, 1},
		{"AdaMBE/threads2", core.Ada, 0, 2},
		{"AdaMBE/threads4", core.Ada, 0, 4},
	} {
		t.Run(tc.name, func(t *testing.T) {
			opts := core.Options{Variant: tc.variant, Tau: tc.tau, Threads: tc.threads}
			rec := obs.NewRecorder(obs.RunInfo{Algorithm: tc.variant.String(), Threads: tc.threads, NV: g.NV()})
			var m core.Metrics
			opts.Metrics, opts.Obs = &m, rec
			res, err := core.Enumerate(g, opts)
			if err != nil {
				t.Fatal(err)
			}
			s := rec.Snapshot()
			for _, c := range []struct {
				name        string
				live, final int64
			}{
				{"Nodes vs NodesGenerated", s.Nodes, m.NodesGenerated},
				{"NodesLN+NodesBit vs Nodes", s.NodesLN + s.NodesBit, s.Nodes},
				{"Bicliques vs Result.Count", s.Bicliques, res.Count},
				{"Bitmaps vs BitmapsCreated", s.Bitmaps, m.BitmapsCreated},
				{"BitPromotions", s.BitPromotions, m.BitPromotions},
				{"ArenaReuse vs ArenaSpawnHits", s.ArenaReuse, m.ArenaSpawnHits},
				{"Steals vs TasksStolen", s.Steals, m.TasksStolen},
				{"RootDone vs |V|", s.RootDone, int64(g.NV())},
			} {
				if c.live != c.final {
					t.Errorf("%s: %d != %d", c.name, c.live, c.final)
				}
			}
			if s.Nodes == 0 || (tc.variant != core.Baseline && tc.variant != core.LN && s.NodesBit == 0) {
				t.Errorf("node split empty: %+v", s)
			}
			if s.Phase != "done" || s.StopReason != "none" {
				t.Errorf("terminal snapshot = %+v", s)
			}

			var bare core.Metrics
			opts.Metrics, opts.Obs = &bare, nil
			if _, err := core.Enumerate(g, opts); err != nil {
				t.Fatal(err)
			}
			if scheduleFree(bare) != scheduleFree(m) {
				t.Errorf("attaching a Recorder changed Metrics:\n%+v\n%+v", scheduleFree(bare), scheduleFree(m))
			}
		})
	}
}

// scheduleFree keeps the Metrics fields a run's thread schedule cannot
// change.
func scheduleFree(m core.Metrics) core.Metrics {
	return core.Metrics{
		NodesGenerated: m.NodesGenerated, NodesMaximal: m.NodesMaximal, NodesNonMaximal: m.NodesNonMaximal,
		NodesPruned: m.NodesPruned, AccessesInsideCG: m.AccessesInsideCG, AccessesOutsideCG: m.AccessesOutsideCG,
		SetIntersections: m.SetIntersections, CGHist: m.CGHist, BitmapsCreated: m.BitmapsCreated,
		BitPromotions: m.BitPromotions, BitWidthHist: m.BitWidthHist,
	}
}

// TestOverheadSmoke is the <5%-when-disabled guard's tripwire form: the
// enabled recorder must not blow up AdaMBE wall time. The bound is
// deliberately loose (2x) because single-process A/B timing on shared CI
// hardware is noisy; the real claim — nothing per node is atomic, and a
// Recorder adds only one publish per stop-check poll — is structural, and
// this test exists to catch an accidental lock, allocation, or syscall
// creeping onto the hot path.
func TestOverheadSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("timing smoke")
	}
	if raceEnabled {
		t.Skip("race instrumentation multiplies atomic costs; timing bound only meaningful unraced")
	}
	g := randomBipartite(t, 3, 500, 500, 15000)

	run := func(rec *obs.Recorder) time.Duration {
		best := time.Duration(1<<62 - 1)
		for i := 0; i < 3; i++ {
			res, err := core.Enumerate(g, core.Options{Variant: core.Ada, Obs: rec})
			if err != nil {
				t.Fatal(err)
			}
			if res.Elapsed < best {
				best = res.Elapsed
			}
		}
		return best
	}

	disabled := run(nil)
	enabled := run(obs.NewRecorder(obs.RunInfo{Algorithm: "AdaMBE"}))
	t.Logf("disabled %v, enabled %v", disabled, enabled)
	if enabled > 2*disabled && enabled-disabled > 50*time.Millisecond {
		t.Fatalf("observability overhead too high: disabled %v, enabled %v", disabled, enabled)
	}
}
