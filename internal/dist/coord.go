package dist

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"os"
	"strconv"
	"sync"
	"time"

	"repro/internal/difftest"
	"repro/internal/obs"
)

// DefaultLeaseTTL is the heartbeat expiry when CoordOptions.LeaseTTL is
// zero: long enough that a loaded worker's frame cadence (sub-second)
// never false-expires, short enough that a dead worker's range is
// re-issued promptly.
const DefaultLeaseTTL = 10 * time.Second

// CoordOptions configures NewCoordinator.
type CoordOptions struct {
	// Spec describes the run; build it with Spec.WithGraph and validate
	// early. Workers re-verify it against their loaded graph.
	Spec Spec
	// Dir is the coordinator's state directory (created if absent);
	// dist-manifest.json lives there. Required: crash recovery is not
	// optional in this protocol.
	Dir string
	// Ranges is how many root ranges to cut [0, |V|) into; 0 means 16.
	// Ignored when Dir holds a recoverable manifest — the persisted
	// ranges are authoritative.
	Ranges int
	// LeaseTTL is the heartbeat expiry; 0 means DefaultLeaseTTL.
	LeaseTTL time.Duration
	// Durable fsyncs the manifest's directory entry on terminal state
	// changes (lease grants, range completion). Watermark updates always
	// keep rename atomicity but skip the directory fsync for throughput.
	Durable bool
	// Log receives structured events; nil discards them.
	Log *slog.Logger
}

// Coordinator owns the range ledger. All mutation happens under one
// mutex — the protocol is chatty per-range but ranges are coarse, so a
// single lock outlives any cleverness here.
type Coordinator struct {
	spec     Spec
	dir      string
	ttl      time.Duration
	durable  bool
	log      *slog.Logger
	now      func() time.Time // test seam; time.Now outside tests
	reg      *obs.Registry
	start    time.Time
	interval time.Duration // janitor scan cadence

	mu       sync.Mutex
	ranges   []*rangeState
	complete bool
	global   difftest.Digest

	doneCh   chan struct{}
	stopJan  chan struct{}
	janDone  chan struct{}
	janOnce  sync.Once
	stopOnce sync.Once

	leasesExpired  *obs.Counter
	leasesReissued *obs.Counter
	framesRejected *obs.Counter
	wmFrames       *obs.Counter
}

// rangeState is the in-memory ledger entry for one range. digest always
// summarizes exactly [Start, Watermark); attemptDigest summarizes what
// the CURRENT attempt has streamed (reset at each grant), for the
// done-frame cross-check.
type rangeState struct {
	id        int
	start     int32
	end       int32
	state     string
	attempt   int
	watermark int32
	worker    string
	lastBeat  time.Time
	digest    difftest.Digest
	attemptD  difftest.Digest
}

// NewCoordinator builds a coordinator, recovering from Dir's manifest if
// one exists (leased ranges revert to pending; watermarks, digests and
// attempt counters carry over) or cutting fresh ranges otherwise.
func NewCoordinator(opts CoordOptions) (*Coordinator, error) {
	if err := opts.Spec.Validate(); err != nil {
		return nil, err
	}
	if opts.Dir == "" {
		return nil, errors.New("dist: CoordOptions.Dir is required")
	}
	if err := ensureDir(opts.Dir); err != nil {
		return nil, err
	}
	ttl := opts.LeaseTTL
	if ttl <= 0 {
		ttl = DefaultLeaseTTL
	}
	c := &Coordinator{
		spec:     opts.Spec,
		dir:      opts.Dir,
		ttl:      ttl,
		durable:  opts.Durable,
		log:      obs.Logger(opts.Log),
		now:      time.Now,
		start:    time.Now(),
		interval: ttl / 4,
		doneCh:   make(chan struct{}),
		stopJan:  make(chan struct{}),
		janDone:  make(chan struct{}),
	}

	m, found, err := loadManifest(opts.Dir)
	if err != nil {
		return nil, err
	}
	if found {
		if err := specCompatible(m.Spec, opts.Spec); err != nil {
			return nil, err
		}
		for _, r := range m.Ranges {
			st := &rangeState{
				id: r.ID, start: r.Start, end: r.End,
				state: r.State, attempt: r.Attempt,
				watermark: r.Watermark, digest: r.Digest,
			}
			// Recovery: nobody holds a lease across a coordinator
			// restart. The attempt counter is preserved so the next grant
			// out-fences any zombie still streaming the old attempt.
			if st.state == stateLeased {
				st.state = statePending
			}
			c.ranges = append(c.ranges, st)
		}
		if m.Complete {
			if c.allDoneLocked() {
				c.finishLocked()
			} else {
				return nil, fmt.Errorf("dist: manifest claims complete but has unfinished ranges")
			}
		}
		c.log.Info("dist_manifest_recovered", "ranges", len(c.ranges), "complete", m.Complete)
	} else {
		n := opts.Ranges
		if n <= 0 {
			n = 16
		}
		for i, rr := range SplitRoots(opts.Spec.NV, n) {
			c.ranges = append(c.ranges, &rangeState{
				id: i, start: rr.Start, end: rr.End,
				state: statePending, watermark: rr.Start,
			})
		}
		if len(c.ranges) == 0 {
			// A graph with an empty V side: the run is vacuously done.
			c.finishLocked()
		}
	}
	if err := c.persistLocked(true); err != nil {
		return nil, err
	}
	c.initMetrics()
	return c, nil
}

func ensureDir(dir string) error {
	return os.MkdirAll(dir, 0o777)
}

// Start launches the lease janitor. Idempotent.
func (c *Coordinator) Start() {
	c.janOnce.Do(func() {
		go c.janitor()
	})
}

// Stop halts the janitor. The HTTP handler stays functional (a stopped
// coordinator still answers progress/metrics), it just stops expiring
// leases.
func (c *Coordinator) Stop() {
	c.stopOnce.Do(func() {
		close(c.stopJan)
	})
	c.janOnce.Do(func() { close(c.janDone) }) // never started
	<-c.janDone
}

// Done is closed when every range is done and the global digest is
// final.
func (c *Coordinator) Done() <-chan struct{} { return c.doneCh }

// GlobalDigest returns the merged digest of every range, and whether the
// run is complete (the digest is only final — and only meaningful —
// once it is).
func (c *Coordinator) GlobalDigest() (difftest.Digest, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.global, c.complete
}

// Registry exposes the coordinator's metrics registry (the /metrics
// source) for embedding and tests.
func (c *Coordinator) Registry() *obs.Registry { return c.reg }

// janitor scans for expired leases at a fraction of the TTL.
func (c *Coordinator) janitor() {
	defer close(c.janDone)
	t := time.NewTicker(c.interval)
	defer t.Stop()
	for {
		select {
		case <-c.stopJan:
			return
		case <-t.C:
			c.expireLeases()
		}
	}
}

// expireLeases reverts every lease whose heartbeat is older than the TTL
// to pending. The attempt counter is NOT bumped here — the next grant
// bumps it — but the state change alone already fences the old worker:
// frames are only accepted while state == leased with a matching
// attempt.
func (c *Coordinator) expireLeases() {
	c.mu.Lock()
	defer c.mu.Unlock()
	now := c.now()
	expired := 0
	for _, r := range c.ranges {
		if r.state == stateLeased && now.Sub(r.lastBeat) > c.ttl {
			c.log.Warn("dist_lease_expired", "range", r.id, "worker", r.worker,
				"attempt", r.attempt, "watermark", r.watermark)
			r.state = statePending
			r.worker = ""
			c.leasesExpired.Inc()
			expired++
		}
	}
	if expired > 0 {
		c.persistLocked(true) //nolint:errcheck // next terminal persist retries; state is consistent
	}
}

// initMetrics registers the coordinator's metric families. The gauges
// read one Progress snapshot at scrape time, so they cannot drift from
// it or from each other's ledger walk.
func (c *Coordinator) initMetrics() {
	c.reg = obs.NewRegistry()
	c.leasesExpired = c.reg.NewCounter("dist_leases_expired_total",
		"Leases whose heartbeat aged past the TTL and were reverted to pending.")
	c.leasesReissued = c.reg.NewCounter("dist_leases_reissued_total",
		"Lease grants for a range that had already been attempted (attempt > 1).")
	c.framesRejected = c.reg.NewCounter("dist_frames_rejected_total",
		"Stream frames rejected by attempt fencing or interval checks.")
	c.wmFrames = c.reg.NewCounter("dist_watermark_frames_total",
		"Watermark frames accepted and merged into range digests.")
	gauge := func(name, help string, read func(Progress) int64) {
		c.reg.NewGaugeFunc(name, help, func() int64 { return read(c.Progress()) })
	}
	gauge("dist_leases_outstanding", "Ranges currently leased to a worker.",
		func(p Progress) int64 { return int64(p.LeasesOutstanding) })
	gauge("dist_ranges_done", "Ranges fully enumerated and merged.",
		func(p Progress) int64 { return int64(p.RangesDone) })
	gauge("dist_ranges_total", "Root ranges the run was split into.",
		func(p Progress) int64 { return int64(p.RangesTotal) })
	gauge("dist_roots_done", "Roots below some range's confirmed watermark.",
		func(p Progress) int64 { return p.RootsDone })
	gauge("dist_bicliques_total", "Maximal bicliques confirmed across all range watermarks.",
		func(p Progress) int64 { return p.Bicliques })
}

// persistLocked writes the manifest. Callers hold c.mu. durable
// additionally fsyncs the directory (terminal transitions); watermark
// cadence calls pass false and rely on rename atomicity — a crash may
// lose recent watermark progress, never corrupt state, and the matching
// digest is always the one persisted WITH its watermark.
func (c *Coordinator) persistLocked(durable bool) error {
	m := manifest{
		Spec:       c.spec,
		LeaseTTLMS: c.ttl.Milliseconds(),
		Complete:   c.complete,
		Ranges:     make([]rangeJSON, len(c.ranges)),
	}
	if c.complete {
		m.Global = &c.global
	}
	for i, r := range c.ranges {
		m.Ranges[i] = rangeJSON{
			ID: r.id, Start: r.start, End: r.end,
			State: r.state, Attempt: r.attempt,
			Watermark: r.watermark, Worker: r.worker,
			Digest: r.digest,
		}
	}
	durable = durable && c.durable
	if err := writeManifest(c.dir, m, durable); err != nil {
		c.log.Error("dist_manifest_write_failed", "err", err)
		return err
	}
	return nil
}

// allDoneLocked reports whether every range is done.
func (c *Coordinator) allDoneLocked() bool {
	for _, r := range c.ranges {
		if r.state != stateDone {
			return false
		}
	}
	return true
}

// finishLocked merges the global digest and closes Done. Idempotent.
func (c *Coordinator) finishLocked() {
	if c.complete {
		return
	}
	c.global = difftest.Digest{}
	for _, r := range c.ranges {
		c.global.Merge(r.digest)
	}
	c.complete = true
	close(c.doneCh)
}

// grantLease hands the lowest-id pending range to worker. ok is false
// when nothing is pending right now (retry later, or the run is
// complete: see Progress). A grant whose manifest write fails is not
// made: the range goes back to pending as it was, and the error is
// returned.
func (c *Coordinator) grantLease(worker string) (lease Lease, ok bool, err error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, r := range c.ranges {
		if r.state != statePending {
			continue
		}
		prev := *r
		r.state = stateLeased
		r.attempt++
		r.worker = worker
		r.lastBeat = c.now()
		r.attemptD = difftest.Digest{}
		// Persist BEFORE the grant leaves the lock: if the coordinator
		// dies after the worker learns the lease but before the attempt
		// counter is durable, a recovered coordinator could re-grant the
		// same attempt number and the fencing token would alias.
		if err := c.persistLocked(true); err != nil {
			*r = prev
			return Lease{}, false, err
		}
		if r.attempt > 1 {
			c.leasesReissued.Inc()
		}
		c.log.Info("dist_lease_granted", "range", r.id, "worker", worker,
			"attempt", r.attempt, "resume", r.watermark, "end", r.end)
		return Lease{
			RangeID: r.id, Attempt: r.attempt,
			Start: r.start, Resume: r.watermark, End: r.end,
			TTLMS: c.ttl.Milliseconds(),
		}, true, nil
	}
	return Lease{}, false, nil
}

// acceptFrame applies one stream frame under the ledger lock. A nil
// error means the frame was merged (or was a pure heartbeat); a non-nil
// error rejects the whole stream (the worker's attempt is stale or the
// worker is violating the protocol).
func (c *Coordinator) acceptFrame(rangeID, attempt int, worker string, f Frame) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if rangeID < 0 || rangeID >= len(c.ranges) {
		c.framesRejected.Inc()
		return fmt.Errorf("unknown range %d", rangeID)
	}
	r := c.ranges[rangeID]
	if r.state != stateLeased || attempt != r.attempt {
		// The fencing rule: the lease expired (or the coordinator
		// restarted) and the range belongs to a newer attempt — or to
		// nobody. Nothing from this stream may merge.
		c.framesRejected.Inc()
		return fmt.Errorf("stale attempt %d for range %d (state %s, current attempt %d)",
			attempt, rangeID, r.state, r.attempt)
	}
	r.lastBeat = c.now()

	switch f.Type {
	case "hb":
		return nil
	case "wm", "done":
		if f.Delta == nil {
			c.framesRejected.Inc()
			return fmt.Errorf("%s frame without delta", f.Type)
		}
		delta := *f.Delta
		// Contiguity: deltas must tile [resume, end) exactly. From must
		// equal the confirmed watermark — anything else double-merges or
		// leaves a hole. One exception: a done frame may be EMPTY
		// (From == To == end) — the flusher legitimately streams the final
		// interval as a wm frame when the frontier reaches the range end
		// before enumeration returns, leaving the done frame nothing but
		// the total cross-check.
		emptyDone := f.Type == "done" && f.From == f.To
		if f.From != r.watermark || f.To > r.end || (f.To <= f.From && !emptyDone) {
			c.framesRejected.Inc()
			return fmt.Errorf("non-contiguous interval [%d,%d) for range %d at watermark %d",
				f.From, f.To, rangeID, r.watermark)
		}
		if f.Type == "done" {
			if f.To != r.end {
				c.framesRejected.Inc()
				return fmt.Errorf("done frame ends at %d, range ends at %d", f.To, r.end)
			}
			if f.Total == nil {
				c.framesRejected.Inc()
				return errors.New("done frame without total")
			}
			// Cross-check before any merge: the attempt's deltas plus
			// this one must reproduce the worker's own total. A mismatch
			// means a frame was lost or reordered — reject and let the
			// lease expire into a clean re-issue.
			check := r.attemptD
			check.Merge(delta)
			if !check.Equal(*f.Total) {
				c.framesRejected.Inc()
				return fmt.Errorf("attempt digest mismatch for range %d: merged %v, worker total %v",
					rangeID, check, *f.Total)
			}
		}
		r.digest.Merge(delta)
		r.attemptD.Merge(delta)
		r.watermark = f.To
		c.wmFrames.Inc()
		if f.Type == "done" {
			r.state = stateDone
			r.worker = ""
			c.log.Info("dist_range_done", "range", rangeID, "attempt", attempt,
				"bicliques", r.digest.Count)
			if c.allDoneLocked() {
				c.finishLocked()
				c.log.Info("dist_run_complete", "bicliques", c.global.Count,
					"digest", c.global.String())
			}
			return c.persistLocked(true)
		}
		return c.persistLocked(false)
	default:
		c.framesRejected.Inc()
		return fmt.Errorf("unknown frame type %q", f.Type)
	}
}

// Progress is the coordinator's public progress snapshot
// (GET /dist/v1/progress).
type Progress struct {
	RootsDone         int64            `json:"roots_done"`
	RootsTotal        int64            `json:"roots_total"`
	RangesDone        int              `json:"ranges_done"`
	RangesTotal       int              `json:"ranges_total"`
	LeasesOutstanding int              `json:"leases_outstanding"`
	Bicliques         int64            `json:"bicliques"`
	Complete          bool             `json:"complete"`
	ElapsedMS         int64            `json:"elapsed_ms"`
	EtaMS             int64            `json:"eta_ms,omitempty"`
	Digest            *difftest.Digest `json:"digest,omitempty"`
}

// Progress snapshots run progress with a crude rate-based ETA.
func (c *Coordinator) Progress() Progress {
	c.mu.Lock()
	defer c.mu.Unlock()
	p := Progress{RangesTotal: len(c.ranges), Complete: c.complete}
	for _, r := range c.ranges {
		p.RootsDone += int64(r.watermark - r.start)
		p.RootsTotal += int64(r.end - r.start)
		p.Bicliques += r.digest.Count
		switch r.state {
		case stateDone:
			p.RangesDone++
		case stateLeased:
			p.LeasesOutstanding++
		}
	}
	elapsed := time.Since(c.start)
	p.ElapsedMS = elapsed.Milliseconds()
	if !c.complete && p.RootsDone > 0 && p.RootsTotal > p.RootsDone {
		perRoot := float64(elapsed) / float64(p.RootsDone)
		p.EtaMS = time.Duration(perRoot * float64(p.RootsTotal-p.RootsDone)).Milliseconds()
	}
	if c.complete {
		g := c.global
		p.Digest = &g
	}
	return p
}

// RangeWatermark reports a range's confirmed watermark and state — the
// observation hook the tests and the smoke script poll.
func (c *Coordinator) RangeWatermark(id int) (watermark int32, state string, ok bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if id < 0 || id >= len(c.ranges) {
		return 0, "", false
	}
	return c.ranges[id].watermark, c.ranges[id].state, true
}

// Handler returns the coordinator's HTTP API:
//
//	GET  /dist/v1/config            run spec for workers
//	POST /dist/v1/lease             acquire a range lease
//	POST /dist/v1/ranges/{id}/stream  NDJSON frame stream for a lease
//	GET  /dist/v1/progress          progress + ETA (+ digest when done)
//	GET  /metrics                   Prometheus text (obs registry)
func (c *Coordinator) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /dist/v1/config", c.handleConfig)
	mux.HandleFunc("POST /dist/v1/lease", c.handleLease)
	mux.HandleFunc("POST /dist/v1/ranges/{id}/stream", c.handleStream)
	mux.HandleFunc("GET /dist/v1/progress", c.handleProgress)
	mux.Handle("GET /metrics", c.reg.Handler())
	return mux
}

func (c *Coordinator) handleConfig(w http.ResponseWriter, r *http.Request) {
	c.mu.Lock()
	n := len(c.ranges)
	c.mu.Unlock()
	obs.WriteJSON(w, http.StatusOK, Config{
		Version: ProtocolVersion, Spec: c.spec,
		Ranges: n, LeaseTTLMS: c.ttl.Milliseconds(),
	})
}

func (c *Coordinator) handleLease(w http.ResponseWriter, r *http.Request) {
	var req leaseRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		obs.WriteJSON(w, http.StatusBadRequest, streamResult{Reason: "bad lease request: " + err.Error()})
		return
	}
	lease, ok, err := c.grantLease(req.Worker)
	if err != nil {
		// The grant was not persisted, so it was not made; the worker's
		// control call retries.
		obs.WriteJSON(w, http.StatusServiceUnavailable, streamResult{Reason: "lease not persisted: " + err.Error()})
		return
	}
	if ok {
		obs.WriteJSON(w, http.StatusOK, lease)
		return
	}
	c.mu.Lock()
	complete := c.complete
	c.mu.Unlock()
	if complete {
		// 410 Gone: the run is over, workers should exit.
		obs.WriteJSON(w, http.StatusGone, streamResult{OK: true, Reason: "run complete"})
		return
	}
	// Nothing pending (every remaining range is leased): poll again.
	w.WriteHeader(http.StatusNoContent)
}

func (c *Coordinator) handleStream(w http.ResponseWriter, r *http.Request) {
	rangeID, err := strconv.Atoi(r.PathValue("id"))
	if err != nil {
		obs.WriteJSON(w, http.StatusBadRequest, streamResult{Reason: "bad range id"})
		return
	}
	attempt, err := strconv.Atoi(r.URL.Query().Get("attempt"))
	if err != nil {
		obs.WriteJSON(w, http.StatusBadRequest, streamResult{Reason: "bad attempt"})
		return
	}
	worker := r.URL.Query().Get("worker")

	dec := json.NewDecoder(r.Body)
	for {
		var f Frame
		if err := dec.Decode(&f); err != nil {
			if errors.Is(err, io.EOF) {
				// Clean end of stream. If the last frame was "done" the
				// range is sealed; otherwise the worker went away
				// mid-range (crash, re-lease) and the janitor will
				// handle the lease.
				obs.WriteJSON(w, http.StatusOK, streamResult{OK: true})
				return
			}
			// Torn stream (worker died mid-frame): nothing to undo —
			// only fully-decoded frames were merged.
			obs.WriteJSON(w, http.StatusBadRequest, streamResult{Reason: "stream decode: " + err.Error()})
			return
		}
		if err := c.acceptFrame(rangeID, attempt, worker, f); err != nil {
			c.log.Warn("dist_frame_rejected", "range", rangeID, "attempt", attempt,
				"worker", worker, "type", f.Type, "err", err)
			obs.WriteJSON(w, http.StatusConflict, streamResult{Reason: err.Error()})
			return
		}
	}
}

func (c *Coordinator) handleProgress(w http.ResponseWriter, r *http.Request) {
	obs.WriteJSON(w, http.StatusOK, c.Progress())
}
