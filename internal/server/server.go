package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"math"
	"math/rand"
	"net/http"
	"runtime"
	"sync"
	"time"

	mbe "repro"
	"repro/internal/obs"
	"repro/internal/spool"
)

// Config tunes a Server. The zero value (plus Dir) is a working
// daemon: 2 executors, 64-job queue, no rate limit, 256 MiB default
// per-job memory budget, 10-minute default job deadline, 3 attempts.
type Config struct {
	// Dir is the job store root (created if absent). Required.
	Dir string
	// Concurrency is the executor pool width — how many jobs enumerate
	// at once; 0 = 2.
	Concurrency int
	// MaxJobs bounds queued+running jobs (admission control); 0 = 64.
	MaxJobs int
	// MemBudgetBytes bounds the sum of admitted jobs' engine-memory
	// budgets; 0 = unlimited. This is the server-wide soft budget the
	// per-job tle budgets compose into.
	MemBudgetBytes int64
	// DefaultJobMemBytes is the per-job engine-memory budget (and
	// admission charge) when a spec doesn't set one; 0 = 256 MiB.
	DefaultJobMemBytes int64
	// RatePerSec + Burst configure the submit-side token bucket;
	// RatePerSec 0 disables rate limiting.
	RatePerSec float64
	Burst      int
	// DefaultDeadline is a job's total wall budget when the spec
	// doesn't set one; 0 = 10 minutes.
	DefaultDeadline time.Duration
	// DefaultThreads is the parallel width for specs with Threads = 0;
	// 0 = GOMAXPROCS.
	DefaultThreads int
	// MaxAttempts bounds the per-job retry loop (total attempts
	// including the first); 0 = 3.
	MaxAttempts int
	// Backoff is the retry delay schedule.
	Backoff Backoff
	// Rand seeds the backoff jitter (tests); nil = global source.
	Rand *rand.Rand
	// CheckpointEvery is each job's checkpoint cadence; 0 = the ckpt
	// default (10s). Tests shrink it so kill -9 has something to find.
	CheckpointEvery time.Duration
	// Logger receives the daemon's structured operational events (one
	// slog record per job state transition, admission decision, shed,
	// recovery action — each carrying trace_id and job_id). cmd/mbed
	// selects a text or JSON handler via -log-format. Nil = silent.
	Logger *slog.Logger
	// FaultHook is the server-side fault-injection seam (see
	// internal/faultinject): called at named sites ("server/attempt");
	// a non-nil return is treated as that site failing.
	FaultHook func(site string) error
}

func (c Config) concurrency() int {
	if c.Concurrency <= 0 {
		return 2
	}
	return c.Concurrency
}

func (c Config) defaultJobMem() int64 {
	if c.DefaultJobMemBytes <= 0 {
		return 256 << 20
	}
	return c.DefaultJobMemBytes
}

func (c Config) defaultDeadline() time.Duration {
	if c.DefaultDeadline <= 0 {
		return 10 * time.Minute
	}
	return c.DefaultDeadline
}

func (c Config) maxAttempts() int {
	if c.MaxAttempts <= 0 {
		return 3
	}
	return c.MaxAttempts
}

// Server is the enumeration daemon: a bounded job queue over the
// durable job store, an executor pool, and the HTTP surface. Create
// one with New, serve Handler(), stop with Close.
type Server struct {
	cfg   cfgResolved
	store *Store
	adm   *admission
	met   *serverMetrics
	log   *slog.Logger

	ctx    context.Context
	cancel context.CancelFunc
	wg     sync.WaitGroup
	queue  chan *job

	jobsMu sync.RWMutex
	jobs   map[string]*job

	cacheMu sync.RWMutex
	cache   map[string]string // CacheKey -> done job id

	started time.Time
}

// cfgResolved is Config plus the derived accessors — kept as the
// original struct so the methods above apply.
type cfgResolved = Config

// New opens (or reopens) the job store under cfg.Dir, runs restart
// recovery — re-adopting completed jobs into the result cache and
// re-enqueueing interrupted ones, which then resume exactly-once from
// their checkpoints — and starts the executor pool.
func New(cfg Config) (*Server, error) {
	if cfg.Dir == "" {
		return nil, errors.New("server: Config.Dir is required")
	}
	store, err := OpenStore(cfg.Dir)
	if err != nil {
		return nil, err
	}
	s := &Server{
		cfg:     cfg,
		store:   store,
		met:     newServerMetrics(),
		log:     cfg.logger(),
		jobs:    make(map[string]*job),
		cache:   make(map[string]string),
		started: time.Now(),
	}
	s.ctx, s.cancel = context.WithCancel(context.Background())

	manifests, err := store.Scan(func(id string, err error) {
		s.log.Warn("recovery_skip_uncommitted", "job_id", id, "err", err)
	})
	if err != nil {
		return nil, err
	}
	now := time.Now()
	var resume []*job
	for _, m := range manifests {
		j := &job{m: m, enqueuedAt: now, stateSince: now}
		s.jobs[m.ID] = j
		switch m.State {
		case JobDone:
			// Re-adopt into the result cache: hot repeated queries are
			// served from this job's spool, never recomputed.
			s.cache[m.CacheKey] = m.ID
		case JobFailed, JobCanceled:
			// Terminal; kept for status reads.
		default:
			resume = append(resume, j)
		}
	}

	maxJobs := cfg.MaxJobs
	if maxJobs <= 0 {
		maxJobs = 64
	}
	s.adm = newAdmission(cfg.RatePerSec, cfg.Burst, maxJobs, cfg.MemBudgetBytes)
	s.met.bindAdmission(s.adm)
	// Recovered jobs were admitted before the crash: re-charge them
	// without consulting the rate limiter, and size the queue so they
	// always fit alongside a full admission window.
	s.queue = make(chan *job, maxJobs+len(resume))
	for _, j := range resume {
		charge := j.m.Spec.MaxMemoryBytes
		if charge == 0 {
			charge = cfg.defaultJobMem()
		}
		s.adm.adopt(charge)
		s.queue <- j
		s.met.recovered.Inc()
		// Same trace_id as before the crash — the manifest carried it
		// through, so the trace is continuous across kill -9.
		s.log.Info("job_recovered",
			"trace_id", j.m.TraceID, "job_id", j.m.ID,
			"state", string(j.m.State), "attempt", j.m.Attempts)
	}
	if n := len(manifests); n > 0 {
		s.log.Info("recovery_done",
			"jobs_scanned", n, "jobs_resumed", len(resume), "cached_results", len(s.cache))
	}

	for i := 0; i < cfg.concurrency(); i++ {
		s.wg.Add(1)
		go s.executorLoop()
	}
	return s, nil
}

// Close stops the executor pool: running enumerations are canceled
// (they checkpoint on the way out via the spool session) and their
// manifests stay in a resumable state. It waits up to timeout for the
// executors to wind down.
func (s *Server) Close(timeout time.Duration) error {
	s.cancel()
	done := make(chan struct{})
	go func() { s.wg.Wait(); close(done) }()
	select {
	case <-done:
		return nil
	case <-time.After(timeout):
		return fmt.Errorf("server: executors still draining after %v", timeout)
	}
}

// Handler returns the daemon's HTTP surface:
//
//	POST   /v1/graphs              submit a graph (KONECT body, binary
//	                               body with ?format=binary, or
//	                               ?dataset=<name> with an empty body)
//	POST   /v1/jobs                submit an enumeration job (JobSpec)
//	GET    /v1/jobs                list jobs
//	GET    /v1/jobs/{id}           job status (+ live progress)
//	GET    /v1/jobs/{id}/results   stream bicliques as NDJSON
//	POST   /v1/jobs/{id}/cancel    cancel (DELETE /v1/jobs/{id} works too)
//	GET    /healthz                liveness + load
//	GET    /metrics                Prometheus text exposition
//	GET    /debug/...              progress/expvar/pprof (internal/obs)
//
// Only the two POST submit endpoints pass through admission control;
// every read keeps working while submits are being shed. Every route is
// wrapped by the instrument middleware: the response carries the
// request's X-MBE-Trace id (client-supplied or minted) and the request
// is counted into the per-route latency histograms — including 429
// sheds and streamed NDJSON bodies.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/graphs", s.handleSubmitGraph)
	mux.HandleFunc("POST /v1/jobs", s.handleSubmitJob)
	mux.HandleFunc("GET /v1/jobs", s.handleListJobs)
	mux.HandleFunc("GET /v1/jobs/{id}", s.handleJobStatus)
	mux.HandleFunc("GET /v1/jobs/{id}/results", s.handleJobResults)
	mux.HandleFunc("POST /v1/jobs/{id}/cancel", s.handleCancelJob)
	mux.HandleFunc("DELETE /v1/jobs/{id}", s.handleCancelJob)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.Handle("GET /metrics", s.met.reg.Handler())
	mux.Handle("/debug/", obs.DebugMux())
	return s.instrument(mux)
}

// --- HTTP plumbing ---------------------------------------------------

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

type errorBody struct {
	Error        string `json:"error"`
	RetryAfterMS int64  `json:"retry_after_ms,omitempty"`
}

func httpError(w http.ResponseWriter, code int, msg string) {
	writeJSON(w, code, errorBody{Error: msg})
}

// shed writes the 429 + Retry-After response for an admission miss.
// The trace id rides the Retry-After log line (and the response header,
// via the instrument middleware), so an overload incident is
// attributable per client after the fact.
func (s *Server) shed(w http.ResponseWriter, r *http.Request, oc *OverCapacityError) {
	secs := int64(math.Ceil(oc.RetryAfter.Seconds()))
	if secs < 1 {
		secs = 1
	}
	w.Header().Set("Retry-After", fmt.Sprint(secs))
	s.met.sheds.With(oc.Kind).Inc()
	s.log.Warn("job_shed",
		"trace_id", traceFrom(r.Context()), "reason", oc.Kind,
		"retry_after_s", secs, "detail", oc.Reason)
	writeJSON(w, http.StatusTooManyRequests, errorBody{
		Error:        oc.Error(),
		RetryAfterMS: oc.RetryAfter.Milliseconds(),
	})
}

// --- handlers --------------------------------------------------------

func (s *Server) handleSubmitGraph(w http.ResponseWriter, r *http.Request) {
	// Graph parsing/storing is submit-side work: rate-limit it with the
	// same bucket as job submission (but it holds no job slot).
	if ok, wait := s.adm.bucket.take(); !ok {
		s.shed(w, r, &OverCapacityError{Reason: "rate limit", RetryAfter: wait, Kind: "rate_limit"})
		return
	}
	var g *mbe.Graph
	var err error
	switch {
	case r.URL.Query().Get("dataset") != "":
		g, err = mbe.Dataset(r.URL.Query().Get("dataset"))
	case r.URL.Query().Get("format") == "binary":
		g, err = mbe.ReadBinary(r.Body)
	default:
		g, err = mbe.ReadKonect(r.Body)
	}
	if err != nil {
		httpError(w, http.StatusBadRequest, err.Error())
		return
	}
	id, err := s.store.SaveGraph(g)
	if err != nil {
		httpError(w, http.StatusInternalServerError, err.Error())
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"graph_id": id,
		"nu":       g.NU(),
		"nv":       g.NV(),
		"edges":    g.NumEdges(),
	})
}

func (s *Server) handleSubmitJob(w http.ResponseWriter, r *http.Request) {
	var spec JobSpec
	if err := json.NewDecoder(r.Body).Decode(&spec); err != nil {
		httpError(w, http.StatusBadRequest, "bad job spec: "+err.Error())
		return
	}
	if spec.Threads == 0 {
		spec.Threads = s.cfg.DefaultThreads
	}
	if spec.Threads == 0 {
		spec.Threads = runtime.GOMAXPROCS(0)
	}
	// An unspecified algorithm follows the resolved width: serial AdaMBE
	// would silently ignore threads > 1.
	if spec.Algorithm == "" && spec.Threads > 1 {
		spec.Algorithm = "ParAdaMBE"
	}
	if err := spec.Validate(); err != nil {
		httpError(w, http.StatusBadRequest, err.Error())
		return
	}
	if !s.store.HasGraph(spec.GraphID) {
		httpError(w, http.StatusNotFound, fmt.Sprintf("unknown graph %q (submit it via POST /v1/graphs first)", spec.GraphID))
		return
	}

	// Result cache: a completed job with the same key serves this query
	// from its spool — no enumeration, no admission charge.
	s.cacheMu.RLock()
	hitID, hit := s.cache[spec.CacheKey()]
	s.cacheMu.RUnlock()
	if hit {
		if j := s.lookup(hitID); j != nil {
			m := j.manifest()
			s.met.cacheHits.Inc()
			s.log.Info("job_cache_hit",
				"trace_id", traceFrom(r.Context()), "job_id", m.ID, "cache_key", m.CacheKey)
			writeJSON(w, http.StatusOK, map[string]any{
				"job_id": m.ID, "state": m.State, "cache_hit": true, "result": m.Result,
			})
			return
		}
	}

	charge := spec.MaxMemoryBytes
	if charge == 0 {
		charge = s.cfg.defaultJobMem()
	}
	if err := s.adm.admit(charge); err != nil {
		var oc *OverCapacityError
		if errors.As(err, &oc) {
			s.shed(w, r, oc)
			return
		}
		httpError(w, http.StatusInternalServerError, err.Error())
		return
	}
	m, err := s.store.CreateJob(spec, traceFrom(r.Context()))
	if err != nil {
		s.adm.release(charge)
		httpError(w, http.StatusInternalServerError, err.Error())
		return
	}
	now := time.Now()
	j := &job{m: m, enqueuedAt: now, stateSince: now}
	s.jobsMu.Lock()
	s.jobs[m.ID] = j
	s.jobsMu.Unlock()
	s.met.cacheMisses.Inc()
	s.met.jobsSubmitted.Inc()
	// The admission decision is the first transition of the job's trace.
	s.log.Info("job_admitted",
		"trace_id", m.TraceID, "job_id", m.ID, "graph_id", spec.GraphID,
		"algorithm", spec.Algorithm, "threads", spec.Threads, "mem_charge", charge)
	s.queue <- j // capacity ≥ MaxJobs, admission makes this non-blocking
	writeJSON(w, http.StatusAccepted, map[string]any{"job_id": m.ID, "state": m.State})
}

func (s *Server) lookup(id string) *job {
	s.jobsMu.RLock()
	defer s.jobsMu.RUnlock()
	return s.jobs[id]
}

func (s *Server) handleListJobs(w http.ResponseWriter, r *http.Request) {
	s.jobsMu.RLock()
	out := make([]Manifest, 0, len(s.jobs))
	for _, j := range s.jobs {
		out = append(out, j.manifest())
	}
	s.jobsMu.RUnlock()
	// Stable order for humans and scripts: newest last.
	sortManifests(out)
	writeJSON(w, http.StatusOK, map[string]any{"jobs": out})
}

func sortManifests(ms []Manifest) {
	for i := 1; i < len(ms); i++ { // insertion sort; job lists are small
		for k := i; k > 0 && (ms[k].CreatedAt < ms[k-1].CreatedAt ||
			(ms[k].CreatedAt == ms[k-1].CreatedAt && ms[k].ID < ms[k-1].ID)); k-- {
			ms[k], ms[k-1] = ms[k-1], ms[k]
		}
	}
}

// jobStatus is the GET /v1/jobs/{id} body: the manifest plus, while an
// attempt is in flight, the live progress snapshot.
type jobStatus struct {
	Manifest
	Progress *obs.Snapshot `json:"progress,omitempty"`
}

func (s *Server) handleJobStatus(w http.ResponseWriter, r *http.Request) {
	j := s.lookup(r.PathValue("id"))
	if j == nil {
		httpError(w, http.StatusNotFound, "unknown job")
		return
	}
	writeJSON(w, http.StatusOK, jobStatus{Manifest: j.manifest(), Progress: j.snapshot()})
}

// resultRecord is one NDJSON line of GET /v1/jobs/{id}/results.
type resultRecord struct {
	L []int32 `json:"l"`
	R []int32 `json:"r"`
}

func (s *Server) handleJobResults(w http.ResponseWriter, r *http.Request) {
	j := s.lookup(r.PathValue("id"))
	if j == nil {
		httpError(w, http.StatusNotFound, "unknown job")
		return
	}
	m := j.manifest()
	dir := s.store.SpoolDir(m.ID)
	partial := m.State != JobDone
	w.Header().Set("Content-Type", "application/x-ndjson")
	if partial {
		// Graceful degradation: a running (or failed) job's durable
		// prefix is still readable — flag it so clients know it is not
		// the full result set.
		w.Header().Set("X-MBE-Partial", "true")
	}
	if !spool.IsSpool(dir) { // queued: nothing durable yet
		w.WriteHeader(http.StatusOK)
		return
	}
	enc := json.NewEncoder(w)
	flusher, _ := w.(http.Flusher)
	lines := 0
	_, err := mbe.ReadSpool(dir, func(L, R []int32) {
		_ = enc.Encode(resultRecord{L: L, R: R})
		if lines++; lines%4096 == 0 && flusher != nil {
			flusher.Flush()
		}
	})
	if err != nil && !partial {
		// A done job must replay cleanly; a torn tail mid-stream can
		// only be signaled by cutting the response short.
		s.log.Error("result_stream_error",
			"trace_id", m.TraceID, "job_id", m.ID, "err", err)
	}
}

func (s *Server) handleCancelJob(w http.ResponseWriter, r *http.Request) {
	j := s.lookup(r.PathValue("id"))
	if j == nil {
		httpError(w, http.StatusNotFound, "unknown job")
		return
	}
	j.mu.Lock()
	state := j.m.State
	tid := j.m.TraceID
	if !state.Terminal() {
		j.canceled = true
		if j.cancel != nil {
			j.cancel()
		}
	}
	j.mu.Unlock()
	if !state.Terminal() {
		s.log.Info("job_cancel_requested",
			"trace_id", tid, "job_id", j.m.ID, "state", string(state))
	}
	writeJSON(w, http.StatusOK, map[string]any{"job_id": j.m.ID, "state": state, "canceling": !state.Terminal()})
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	active, mem := s.adm.load()
	s.jobsMu.RLock()
	total := len(s.jobs)
	s.jobsMu.RUnlock()
	writeJSON(w, http.StatusOK, map[string]any{
		"status":              "ok",
		"uptime_ms":           time.Since(s.started).Milliseconds(),
		"jobs_total":          total,
		"jobs_active":         active,
		"mem_committed_bytes": mem,
	})
}
