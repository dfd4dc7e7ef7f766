package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"

	mbe "repro"
	"repro/internal/dist"
	"repro/internal/graph"
)

const (
	coordWorkers = 2
	coordGraphs  = 2
	coordRuns    = 4 // measured coordinator runs, after one warm-up run
	coordTimeout = 60 * time.Second
)

// distLayer measures the dist layer in a traced run. Coordinator runs are
// not a timed workload: at 20-35 runs per measured phase their latency
// spread too much from one run of the benchmark to the next on a 2-vCPU
// host. So the traced mbe-affil-par2 run makes them beside its own ops and
// keeps them out of its end-to-end figures. Each run is a fresh
// coordinator at its defaults (16 root ranges, default lease TTL) and two
// in-process workers running serial AdaMBE over loopback HTTP, on graphs
// generated with WC's parameters that the workers load through Spec.Path.
// A run whose GlobalDigest differs from the reference fails the benchmark.
func (r *runner) distLayer() error {
	ins := make([]input, coordGraphs)
	specs := make([]dist.Spec, coordGraphs)
	for k := range ins {
		in, err := prepare(wcLike(r.cfg.seed*64+32+int64(k), r.cfg.tiny))
		if err != nil {
			return fmt.Errorf("graph %d: %w", k, err)
		}
		ins[k] = in
		path := filepath.Join(r.work, fmt.Sprintf("wc-%d.konect", k))
		if err := os.WriteFile(path, in.konect, 0o644); err != nil {
			return err
		}
		b, err := graph.ReadKonect(bytes.NewReader(in.konect))
		if err != nil {
			return err
		}
		specs[k] = dist.Spec{Algorithm: "AdaMBE", Ordering: "asc", Path: path}.WithGraph(b)
	}
	client := &http.Client{}
	defer client.CloseIdleConnections()

	ranges := 0
	for i := 0; i <= coordRuns; i++ {
		k := i % coordGraphs
		n, err := r.coordRun(client, specs[k], &ins[k], i, i > 0)
		if err != nil {
			return err
		}
		ranges = n
	}
	return r.coordInflation(&ins[0], ranges)
}

// coordRun sets up a coordinator and its workers, runs it from Start until
// Done, checks its GlobalDigest and tears it down. A measured run records
// spans (roots "coord-setup" and "coord-op") and the dist samples. It
// returns how many root ranges the coordinator cut.
func (r *runner) coordRun(client *http.Client, spec dist.Spec, in *input, i int, measured bool) (int, error) {
	dir := filepath.Join(r.work, fmt.Sprintf("coord-%d", i))
	defer os.RemoveAll(dir)

	setupRoot, root := openSpan{}, openSpan{}
	if measured {
		setupRoot = r.tr.root("coord-setup")
	}
	cs := setupRoot.child("dist.coord_start")
	c, err := dist.NewCoordinator(dist.CoordOptions{Spec: spec, Dir: dir})
	if err != nil {
		return 0, fmt.Errorf("coordinator: %w", err)
	}
	gate := newLeaseGate(c.Handler(), coordWorkers)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		c.Stop()
		return 0, err
	}
	hs := &http.Server{Handler: gate}
	served := make(chan error, 1)
	go func() { served <- hs.Serve(ln) }()
	base := "http://" + ln.Addr().String()
	cs.end()

	bs := setupRoot.child("dist.bootstrap")
	tb := time.Now()
	ctx, cancel := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	exited := make([]time.Time, coordWorkers)
	for w := 0; w < coordWorkers; w++ {
		wk := dist.NewWorker(dist.WorkerOptions{Coord: base, ID: fmt.Sprintf("w%d", w), Threads: 1})
		wg.Add(1)
		go func() {
			defer wg.Done()
			_ = wk.Run(ctx) // the run's outcome is the coordinator's digest
			exited[w] = time.Now()
		}()
	}
	teardown := func() error {
		cancel()
		wg.Wait()
		c.Stop()
		sctx, scancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer scancel()
		err := hs.Shutdown(sctx)
		<-served
		return err
	}
	select {
	case <-gate.ready:
	case <-time.After(coordTimeout):
		return 0, errors.Join(errors.New("workers did not bootstrap"), teardown())
	}
	bs.end()
	bootstrap := time.Since(tb)
	setupRoot.end()

	if measured {
		root = r.tr.root("coord-op")
	}
	run := root.child("dist.run")
	gate.setSpan(run)
	start := time.Now()
	c.Start()
	gate.open()
	finished := false
	select {
	case <-c.Done():
		finished = true
	case <-time.After(coordTimeout):
	}
	doneAt := time.Now()
	run.endAt(doneAt)
	v := root.child("client.verify")
	d, complete := c.GlobalDigest()
	ok := finished && complete && d.Equal(in.ref)
	v.end()
	lat := time.Since(start)
	root.end()
	ranges := c.Progress().RangesTotal

	// Cancel the workers at Done rather than letting them idle out their
	// lease poll, and scrape the coordinator before it goes away.
	cancel()
	wg.Wait()
	var lag time.Duration
	for _, at := range exited {
		lag = max(lag, at.Sub(doneAt))
	}
	var met map[string]float64
	var scrapeErr error
	if measured {
		met, scrapeErr = scrape(client, base+"/metrics")
	}
	if err := errors.Join(scrapeErr, teardown()); err != nil {
		return 0, err
	}
	if !ok {
		return 0, fmt.Errorf("coordinator run %d: finished=%v complete=%v count=%d, reference count %d",
			i, finished, complete, d.Count, in.ref.Count)
	}
	if measured {
		r.sample("dist.bootstrap_ms", ms(bootstrap))
		r.sample("dist.watermark_frames", met["dist_watermark_frames_total"])
		r.sample("dist.leases_reissued", met["dist_leases_reissued_total"])
		r.sample("dist.frames_rejected", met["dist_frames_rejected_total"])
		r.sample("dist.worker_exit_lag_ms", ms(lag))
		busy, maxRange, sumRange := gate.streamTotals()
		r.sample("dist.range_time_max_share", ratio(float64(maxRange), float64(sumRange)))
		r.sample("dist.worker_idle_share", 1-ratio(float64(busy), float64(coordWorkers)*float64(lat)))
	}
	return ranges, nil
}

// coordInflation runs the same root ranges the coordinator cuts through
// Enumerate with the workers' engine and ordering, and divides their
// summed set intersections by the whole-graph run's.
func (r *runner) coordInflation(in *input, ranges int) error {
	var whole mbe.Metrics
	res, err := mbe.Enumerate(in.g, mbe.Options{Algorithm: mbe.AdaMBE, Metrics: &whole})
	if err != nil || res.Count != in.ref.Count {
		return fmt.Errorf("whole-graph run: count %d, want %d (%v)", res.Count, in.ref.Count, err)
	}
	var sum, count int64
	for _, rr := range dist.SplitRoots(in.g.NV(), ranges) {
		var m mbe.Metrics
		res, err := mbe.Enumerate(in.g, mbe.Options{Algorithm: mbe.AdaMBE, Metrics: &m, StartRoot: rr.Start, EndRoot: rr.End})
		if err != nil {
			return fmt.Errorf("range [%d,%d): %w", rr.Start, rr.End, err)
		}
		sum += m.SetIntersections
		count += res.Count
	}
	if count != in.ref.Count {
		return fmt.Errorf("root ranges: %d bicliques, want %d", count, in.ref.Count)
	}
	r.setLayer("dist.intersection_inflation", ratio(float64(sum), float64(whole.SetIntersections)))
	return nil
}

// leaseGate wraps the coordinator's handler. It holds every worker's
// first lease request until open, so the set-up (both workers
// bootstrapped) ends before the op starts, and it times the lease and
// range-stream requests it passes through.
type leaseGate struct {
	next   http.Handler
	need   int
	ready  chan struct{} // closed once need workers asked for a lease
	opened chan struct{}

	mu       sync.Mutex
	seen     map[string]bool
	span     openSpan
	busy     time.Duration            // summed range-stream time
	rangeDur map[string]time.Duration // range-stream time per range
}

func newLeaseGate(next http.Handler, need int) *leaseGate {
	return &leaseGate{
		next: next, need: need, ready: make(chan struct{}), opened: make(chan struct{}),
		seen: map[string]bool{}, rangeDur: map[string]time.Duration{},
	}
}

func (g *leaseGate) open() { close(g.opened) }

func (g *leaseGate) setSpan(s openSpan) {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.span = s
}

func (g *leaseGate) arrive(worker string) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.seen[worker] {
		return
	}
	g.seen[worker] = true
	if len(g.seen) == g.need {
		close(g.ready)
	}
}

// streamTotals returns the summed range-stream time, and the longest and
// summed per-range times.
func (g *leaseGate) streamTotals() (busy, maxRange, sumRange time.Duration) {
	g.mu.Lock()
	defer g.mu.Unlock()
	for _, d := range g.rangeDur {
		maxRange = max(maxRange, d)
		sumRange += d
	}
	return g.busy, maxRange, sumRange
}

func (g *leaseGate) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	switch {
	case r.Method == http.MethodPost && r.URL.Path == "/dist/v1/lease":
		body, err := io.ReadAll(r.Body)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		r.Body = io.NopCloser(bytes.NewReader(body))
		var req struct {
			Worker string `json:"worker"`
		}
		_ = json.Unmarshal(body, &req) // the coordinator validates the body
		g.arrive(req.Worker)
		select {
		case <-g.opened:
		case <-r.Context().Done():
			return
		}
		t0 := time.Now()
		g.next.ServeHTTP(w, r)
		g.record("dist.lease", "", t0)
	case r.Method == http.MethodPost && strings.HasPrefix(r.URL.Path, "/dist/v1/ranges/"):
		t0 := time.Now()
		g.next.ServeHTTP(w, r)
		id := strings.TrimSuffix(strings.TrimPrefix(r.URL.Path, "/dist/v1/ranges/"), "/stream")
		g.record("dist.range_stream", id, t0)
	default:
		g.next.ServeHTTP(w, r)
	}
}

// record adds a span under the op's dist.run span and, for a range
// stream, its time to the range's total.
func (g *leaseGate) record(name, rangeID string, start time.Time) {
	end := time.Now()
	g.mu.Lock()
	defer g.mu.Unlock()
	g.span.record(name, start, end)
	if rangeID != "" {
		g.busy += end.Sub(start)
		g.rangeDur[rangeID] += end.Sub(start)
	}
}
