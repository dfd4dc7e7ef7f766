package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"math"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	mbe "repro"
	"repro/internal/graph"
	"repro/internal/order"
	"repro/internal/server"
)

const (
	mbedSetups     = 9
	mbedClients    = 2
	mbedWarmGroups = 1
	// Every group is groupSize jobs, the last of which resubmits the one
	// before it, so exactly one job in groupSize is a result-cache hit.
	groupSize  = 4
	jobTimeout = 60 * time.Second
	// fallbackPoll bounds the wait for a job's terminal log event before
	// the client polls anyway. The event wakes the client as the job ends,
	// so a job shorter than this is polled exactly once.
	fallbackPoll = 2 * time.Second
)

// runMbed drives mbed-affil-jobs: an in-process daemon at its defaults
// (2 executors) and two closed-loop clients. An op is one job, from
// submit until the last NDJSON byte is read and its digest verified.
func runMbed(r *runner) error {
	client := &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 8}}
	defer client.CloseIdleConnections()

	// Set-up: start a daemon on a fresh store and upload the graphs,
	// repeated; the last daemon serves the measured phase.
	var d *daemon
	for i := 0; i < mbedSetups; i++ {
		if d != nil {
			if err := d.close(); err != nil {
				return err
			}
			os.RemoveAll(d.dir)
		}
		traced := r.traced(i)
		root := openSpan{}
		if traced {
			root = r.tr.root("setup")
		}
		t0 := time.Now()
		var err error
		d, err = startDaemon(r, client, filepath.Join(r.work, fmt.Sprintf("daemon-%d", i)), root)
		if err != nil {
			return fmt.Errorf("set-up: %w", err)
		}
		r.addSetup(time.Since(t0), traced)
		root.end()
	}

	var warmed sync.WaitGroup
	warmed.Add(mbedClients)
	start := make(chan struct{})
	var measureStart time.Time
	var jobs, hits atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < mbedClients; c++ {
		cl := &mbedClient{r: r, d: d, http: client, id: c, jobs: &jobs, hits: &hits}
		wg.Add(1)
		go func() {
			defer wg.Done()
			cl.loop(&warmed, start, &measureStart)
		}()
	}
	warmed.Wait()
	before, scrapeErr := scrape(client, d.base+"/metrics")
	measureStart = time.Now()
	close(start)
	wg.Wait()
	r.wall = time.Since(measureStart)
	after, err := scrape(client, d.base+"/metrics")
	if scrapeErr != nil || err != nil {
		d.close()
		return errors.Join(scrapeErr, err)
	}
	if err := d.close(); err != nil {
		return err
	}
	if r.tr == nil {
		return nil
	}

	delta := func(name string) float64 { return after[name] - before[name] }
	r.setLayer("server.queue_wait_ms", 1e3*ratio(delta("mbed_job_queue_wait_seconds_sum"), delta("mbed_job_queue_wait_seconds_count")))
	r.setLayer("server.run_ms", 1e3*ratio(delta("mbed_job_run_seconds_sum"), delta("mbed_job_run_seconds_count")))
	r.setLayer("server.retries", delta("mbed_job_retries_total"))
	r.setLayer("server.sheds", delta("mbed_admission_shed_total"))
	r.setLayer("server.cache_hit_ratio", ratio(float64(hits.Load()), float64(jobs.Load())))

	var specs []jobSpec
	for n := 0; n < 5; n++ {
		specs = append(specs, freshSpec(r.cfg.seed, 0, n, d.graphs))
	}
	if err := r.spoolMetrics(specs[:3]); err != nil {
		return err
	}
	if err := r.permuteTimes(specs); err != nil {
		return err
	}
	return r.parseTimes()
}

// daemon is an in-process mbed: internal/server behind a loopback HTTP
// listener.
type daemon struct {
	dir    string
	srv    *server.Server
	hs     *http.Server
	served chan error
	base   string
	events *jobEvents
	graphs []string // graph id per input
}

// startDaemon opens a server on dir, serves it on a loopback port and
// uploads every input graph as KONECT text.
func startDaemon(r *runner, client *http.Client, dir string, root openSpan) (*daemon, error) {
	ev := newJobEvents()
	s := root.child("server.start")
	srv, err := server.New(server.Config{Dir: dir, Logger: slog.New(ev)})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close(10 * time.Second)
		return nil, err
	}
	d := &daemon{
		dir: dir, srv: srv, hs: &http.Server{Handler: srv.Handler()},
		served: make(chan error, 1), base: "http://" + ln.Addr().String(), events: ev,
	}
	go func() { d.served <- d.hs.Serve(ln) }()
	s.end()
	for _, in := range r.inputs {
		u := root.child("server.upload")
		id, err := d.upload(client, in.konect)
		u.end()
		if err != nil {
			d.close()
			return nil, err
		}
		d.graphs = append(d.graphs, id)
	}
	return d, nil
}

func (d *daemon) upload(client *http.Client, konect []byte) (string, error) {
	resp, err := client.Post(d.base+"/v1/graphs", "text/plain", bytes.NewReader(konect))
	if err != nil {
		return "", fmt.Errorf("graph upload: %w", err)
	}
	defer resp.Body.Close()
	var out struct {
		GraphID string `json:"graph_id"`
		Error   string `json:"error"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil || out.GraphID == "" {
		return "", fmt.Errorf("graph upload: HTTP %d: %s (%v)", resp.StatusCode, out.Error, err)
	}
	return out.GraphID, nil
}

// close stops the listener, then the executors.
func (d *daemon) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := d.hs.Shutdown(ctx)
	<-d.served
	return errors.Join(err, d.srv.Close(10*time.Second))
}

// jobEvents turns the daemon's structured job_done/job_failed/
// job_canceled log records into per-job signals, so a client learns that
// its job ended without sleeping between polls.
type jobEvents struct {
	mu    sync.Mutex
	chans map[string]chan struct{}
}

func newJobEvents() *jobEvents { return &jobEvents{chans: map[string]chan struct{}{}} }

// ch returns the channel closed when job id ends.
func (e *jobEvents) ch(id string) chan struct{} {
	e.mu.Lock()
	defer e.mu.Unlock()
	c, ok := e.chans[id]
	if !ok {
		c = make(chan struct{})
		e.chans[id] = c
	}
	return c
}

func (e *jobEvents) Enabled(context.Context, slog.Level) bool { return true }
func (e *jobEvents) WithAttrs([]slog.Attr) slog.Handler       { return e }
func (e *jobEvents) WithGroup(string) slog.Handler            { return e }

func (e *jobEvents) Handle(_ context.Context, rec slog.Record) error {
	switch rec.Message {
	case "job_done", "job_failed", "job_canceled":
	default:
		return nil
	}
	rec.Attrs(func(a slog.Attr) bool {
		if a.Key != "job_id" {
			return true
		}
		c := e.ch(a.Value.String())
		e.mu.Lock()
		select {
		case <-c:
		default:
			close(c)
		}
		e.mu.Unlock()
		return false
	})
	return nil
}

// jobSpec is the body of POST /v1/jobs; graph is the input's index.
type jobSpec struct {
	GraphID   string `json:"graph_id"`
	Algorithm string `json:"algorithm"`
	Threads   int    `json:"threads"`
	Ordering  string `json:"ordering"`
	Seed      int64  `json:"seed"`
	graph     int
}

// freshSpec is client's n-th job spec that is not a resubmission: serial
// AdaMBE under a random ordering with a seed no other job of the run uses.
func freshSpec(seed int64, client, n int, graphs []string) jobSpec {
	k := n % len(graphs)
	return jobSpec{
		GraphID: graphs[k], graph: k, Algorithm: "AdaMBE", Threads: 1, Ordering: "rand",
		Seed: seed*1_000_000 + int64(client)*100_000 + int64(n) + 1,
	}
}

// jobStatus is the part of a job's status (and of a cache-hit submit
// response) the client reads.
type jobStatus struct {
	JobID    string `json:"job_id"`
	State    string `json:"state"`
	CacheHit bool   `json:"cache_hit"`
	Error    string `json:"error"`
	Result   *struct {
		Count  int64  `json:"count"`
		Digest string `json:"digest"`
	} `json:"result"`
}

// mbedClient is one closed-loop client.
type mbedClient struct {
	r     *runner
	d     *daemon
	http  *http.Client
	id    int
	fresh int
	// Measured jobs and result-cache hits among them, shared by clients.
	jobs, hits *atomic.Int64
}

// loop runs warm-up groups, signals warmed, waits for start, then runs
// groups until the run length is spent.
func (c *mbedClient) loop(warmed *sync.WaitGroup, start <-chan struct{}, measureStart *time.Time) {
	for g := 0; ; g++ {
		warm := g < mbedWarmGroups
		if g == mbedWarmGroups {
			warmed.Done()
			<-start
		}
		if !warm && time.Since(*measureStart) >= c.r.cfg.seconds {
			return
		}
		traced := c.r.traced(g)
		var prev jobSpec
		for k := 0; k < groupSize; k++ {
			spec := prev
			if k < groupSize-1 {
				spec = freshSpec(c.r.cfg.seed, c.id, c.fresh, c.d.graphs)
				c.fresh++
			}
			c.r.addOp(c.job(spec, traced, warm))
			prev = spec
		}
	}
}

// job runs one op and records its client-side layer timings.
func (c *mbedClient) job(spec jobSpec, traced, warm bool) opRec {
	n := c.r.nextOp()
	root := openSpan{}
	if traced {
		root = c.r.tr.root("op")
	}
	t0 := time.Now()
	t, err := c.do(n, spec, root)
	lat := time.Since(t0)
	root.end()
	if !warm {
		c.jobs.Add(1)
		if t.cacheHit {
			c.hits.Add(1)
		}
		if traced && err == nil {
			if !t.cacheHit {
				c.r.sample("server.submit_ms", t.submit)
				c.r.mean("server.polls_per_job", float64(t.polls))
			}
			c.r.sample("server.stream_ms", t.stream)
			c.r.sample("server.verify_ms", t.verify)
		}
	}
	if err != nil {
		c.r.logf("op %d (client %d, seed %d): %v", n, c.id, spec.Seed, err)
	}
	return opRec{warm: warm, traced: traced, failed: err != nil, lat: lat, bicliques: t.bicliques}
}

// jobTimes is what one job cost the client, per step.
type jobTimes struct {
	submit, stream, verify float64 // ms
	polls                  int
	cacheHit               bool
	bicliques              int64
}

// do submits spec, waits for the job to end, streams its results and
// checks their digest against both the server's and the reference.
func (c *mbedClient) do(n int64, spec jobSpec, root openSpan) (jobTimes, error) {
	var t jobTimes
	deadline := time.Now().Add(jobTimeout)
	body, err := json.Marshal(spec)
	if err != nil {
		return t, err
	}
	s := root.child("server.submit")
	t0 := time.Now()
	resp, err := c.http.Post(c.d.base+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		s.end()
		return t, fmt.Errorf("submit: %w", err)
	}
	var st jobStatus
	derr := json.NewDecoder(resp.Body).Decode(&st)
	resp.Body.Close()
	s.end()
	t.submit = msSince(t0)
	if resp.StatusCode == http.StatusTooManyRequests {
		return t, errors.New("submit shed with 429")
	}
	if derr != nil || st.JobID == "" {
		return t, fmt.Errorf("submit: HTTP %d: %s (%v)", resp.StatusCode, st.Error, derr)
	}
	id := st.JobID
	t.cacheHit = st.CacheHit
	if !st.CacheHit {
		w := root.child("server.wait")
		st, t.polls, err = c.wait(id, w, deadline)
		w.end()
		if err != nil {
			return t, err
		}
	}
	if st.State != "done" || st.Result == nil {
		return t, fmt.Errorf("job %s ended %s: %s", id, st.State, st.Error)
	}

	sp := root.child("server.stream")
	t1 := time.Now()
	data, err := c.results(id)
	sp.end()
	t.stream = msSince(t1)
	if err != nil {
		return t, err
	}
	v := root.child("client.verify")
	t2 := time.Now()
	got, err := digestNDJSON(data)
	v.end()
	t.verify = msSince(t2)
	if err != nil {
		return t, fmt.Errorf("job %s results: %w", id, err)
	}
	if got.String() != st.Result.Digest {
		return t, fmt.Errorf("job %s: streamed digest %s, server recorded %s", id, got, st.Result.Digest)
	}
	if !c.r.check(n, got, c.r.inputs[spec.graph].ref) {
		return t, fmt.Errorf("job %s: digest does not match the reference run", id)
	}
	t.bicliques = got.Count
	return t, nil
}

// wait blocks until job id ends: it polls once the daemon has logged the
// job's terminal event, or every fallbackPoll if the event is missed.
func (c *mbedClient) wait(id string, sp openSpan, deadline time.Time) (jobStatus, int, error) {
	ended := c.d.events.ch(id)
	for polls := 1; ; polls++ {
		select {
		case <-ended:
			ended = nil // seen; any further round waits on the timer
		case <-time.After(fallbackPoll):
		}
		p := sp.child("server.poll")
		st, err := c.status(id)
		p.end()
		if err != nil {
			return st, polls, err
		}
		switch st.State {
		case "done", "failed", "canceled":
			return st, polls, nil
		}
		if time.Now().After(deadline) {
			return st, polls, fmt.Errorf("job %s: timed out in state %s", id, st.State)
		}
	}
}

func (c *mbedClient) status(id string) (jobStatus, error) {
	var st jobStatus
	resp, err := c.http.Get(c.d.base + "/v1/jobs/" + id)
	if err != nil {
		return st, fmt.Errorf("status: %w", err)
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		return st, fmt.Errorf("status: HTTP %d: %w", resp.StatusCode, err)
	}
	return st, nil
}

// results reads a job's whole NDJSON result stream.
func (c *mbedClient) results(id string) ([]byte, error) {
	resp, err := c.http.Get(c.d.base + "/v1/jobs/" + id + "/results")
	if err != nil {
		return nil, fmt.Errorf("results: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK || resp.Header.Get("X-MBE-Partial") != "" {
		return nil, fmt.Errorf("results: HTTP %d, partial=%q", resp.StatusCode, resp.Header.Get("X-MBE-Partial"))
	}
	return io.ReadAll(resp.Body)
}

// digestNDJSON digests an NDJSON result stream of {"l":[...],"r":[...]}
// records. Lines in the compact form the daemon writes are parsed by hand:
// with encoding/json the client spent about as much CPU per job as the
// daemon's executor, and two clients and two executors on 2 vCPUs then
// measured the scheduler. Any other line goes through encoding/json.
func digestNDJSON(data []byte) (mbe.Digest, error) {
	var d mbe.Digest
	var L, R []int32
	for len(data) > 0 {
		line := data
		if i := bytes.IndexByte(data, '\n'); i >= 0 {
			line, data = data[:i], data[i+1:]
		} else {
			data = nil
		}
		if len(bytes.TrimSpace(line)) == 0 {
			continue
		}
		var ok bool
		if L, R, ok = parseRecord(line, L[:0], R[:0]); !ok {
			var rec struct {
				L []int32 `json:"l"`
				R []int32 `json:"r"`
			}
			if err := json.Unmarshal(line, &rec); err != nil {
				return d, err
			}
			L, R = rec.L, rec.R
		}
		d.Observe(L, R)
	}
	return d, nil
}

// parseRecord parses a line of exactly the form {"l":[1,2],"r":[3]},
// appending the sides to L and R.
func parseRecord(line []byte, L, R []int32) ([]int32, []int32, bool) {
	rest, ok := bytes.CutPrefix(line, []byte(`{"l":`))
	if !ok {
		return L, R, false
	}
	if L, rest, ok = parseInts(rest, L); !ok {
		return L, R, false
	}
	if rest, ok = bytes.CutPrefix(rest, []byte(`,"r":`)); !ok {
		return L, R, false
	}
	if R, rest, ok = parseInts(rest, R); !ok {
		return L, R, false
	}
	return L, R, string(rest) == "}"
}

// parseInts parses a JSON array of int32s without spaces from the start of
// b, appending them to out, and returns the rest of b.
func parseInts(b []byte, out []int32) ([]int32, []byte, bool) {
	if len(b) < 2 || b[0] != '[' {
		return out, b, false
	}
	b = b[1:]
	if b[0] == ']' {
		return out, b[1:], true
	}
	for {
		neg := len(b) > 0 && b[0] == '-'
		if neg {
			b = b[1:]
		}
		var n int64
		i := 0
		for ; i < len(b) && i < 11 && b[i] >= '0' && b[i] <= '9'; i++ {
			n = n*10 + int64(b[i]-'0')
		}
		if neg {
			n = -n
		}
		if i == 0 || n < math.MinInt32 || n > math.MaxInt32 || i == len(b) {
			return out, b, false
		}
		out = append(out, int32(n))
		switch b[i] {
		case ',':
			b = b[i+1:]
		case ']':
			return out, b[i+1:], true
		default:
			return out, b, false
		}
	}
}

// spoolMetrics runs the first fresh job specs through Enumerate with and
// without a spool, replays the spools, and reads one run's spool
// counters.
func (r *runner) spoolMetrics(specs []jobSpec) error {
	var plain, spooled, replay []float64
	for i, sp := range specs {
		in := &r.inputs[sp.graph]
		opts := mbe.Options{Algorithm: mbe.AdaMBE, Ordering: mbe.OrderRandom, Seed: sp.Seed}
		t0 := time.Now()
		if _, err := mbe.Enumerate(in.g, opts); err != nil {
			return err
		}
		plain = append(plain, msSince(t0))

		opts.SpoolDir = filepath.Join(r.work, fmt.Sprintf("spool-%d", i))
		if i == 0 {
			rec := mbe.NewRecorder(mbe.RunInfo{Algorithm: "AdaMBE", Threads: 1})
			opts.Obs = rec
			t0 = time.Now()
			res, err := mbe.Enumerate(in.g, opts)
			if err != nil {
				return err
			}
			spooled = append(spooled, msSince(t0))
			snap := rec.Snapshot()
			r.setLayer("spool.bytes_per_biclique", ratio(float64(snap.SpoolBytes), float64(res.Count)))
			r.setLayer("spool.frames", float64(snap.SpoolFrames))
			r.setLayer("spool.fsyncs", float64(snap.SpoolFsyncs))
		} else {
			t0 = time.Now()
			if _, err := mbe.Enumerate(in.g, opts); err != nil {
				return err
			}
			spooled = append(spooled, msSince(t0))
		}

		t0 = time.Now()
		n, err := mbe.ReadSpool(opts.SpoolDir, func(L, R []int32) {})
		if err != nil || n != in.ref.Count {
			return fmt.Errorf("spool replay: %d records, want %d (%v)", n, in.ref.Count, err)
		}
		replay = append(replay, msSince(t0))
		os.RemoveAll(opts.SpoolDir)
	}
	r.setLayer("spool.write_overhead_ms", median(spooled)-median(plain))
	r.setLayer("spool.replay_ms", median(replay))
	return nil
}

// permuteTimes times the random V ordering of the given job specs' seeds
// (order.Permutation plus the permuted copy), replayed on their graphs.
func (r *runner) permuteTimes(specs []jobSpec) error {
	parsed := map[int]*graph.Bipartite{}
	for _, sp := range specs {
		b, ok := parsed[sp.graph]
		if !ok {
			var err error
			if b, err = graph.ReadKonect(bytes.NewReader(r.inputs[sp.graph].konect)); err != nil {
				return err
			}
			parsed[sp.graph] = b
		}
		t0 := time.Now()
		perm := order.Permutation(b, order.Random, sp.Seed)
		if _, err := b.PermuteV(perm); err != nil {
			return err
		}
		r.sample("order.permute_ms", msSince(t0))
	}
	return nil
}
