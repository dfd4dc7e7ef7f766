package server

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"time"

	mbe "repro"
	"repro/internal/ckpt"
	"repro/internal/engine"
	"repro/internal/obs"
	"repro/internal/spool"
)

// Sentinel terminal outcomes the retry loop distinguishes.
var (
	errJobCanceled  = errors.New("server: job canceled")
	errShutdown     = errors.New("server: daemon shutting down")
	errJobDeadline  = errors.New("server: job deadline exceeded")
	errMemExhausted = errors.New("server: memory budget exceeded at minimum parallelism")
)

// executorLoop is one worker of the execution pool: it drains the job
// queue until the server context is canceled.
func (s *Server) executorLoop() {
	defer s.wg.Done()
	for {
		select {
		case <-s.ctx.Done():
			return
		case j := <-s.queue:
			s.runJob(j)
		}
	}
}

// runJob drives one job through the retry loop to a terminal state —
// except on daemon shutdown, where the manifest is deliberately left
// queued/running/retrying so restart recovery resumes it exactly-once
// from its checkpoint.
func (s *Server) runJob(j *job) {
	jobCtx, cancel := context.WithCancel(s.ctx)
	defer cancel()

	j.mu.Lock()
	if j.canceled { // canceled while still queued
		j.m.State = JobCanceled
		j.m.Error = errJobCanceled.Error()
		m := j.m
		waitedMS := msSince(j.enqueuedAt)
		j.mu.Unlock()
		s.persist(m)
		s.met.jobsCompleted.With(string(JobCanceled)).Inc()
		s.log.Info("job_canceled",
			"trace_id", m.TraceID, "job_id", m.ID, "from_state", string(JobQueued),
			"queue_wait_ms", waitedMS)
		s.finalize(j)
		return
	}
	j.cancel = cancel
	if j.deadline.IsZero() {
		d := time.Duration(j.m.Spec.DeadlineMS) * time.Millisecond
		if d <= 0 {
			d = s.cfg.defaultDeadline()
		}
		j.deadline = time.Now().Add(d)
	}
	// First executor pickup ends the queue wait (recovered jobs measure
	// from re-enqueue); clear the mark so a retry loop does not re-count.
	if !j.enqueuedAt.IsZero() {
		wait := time.Since(j.enqueuedAt)
		j.enqueuedAt = time.Time{}
		j.stateSince = time.Now()
		s.met.queueWait.Observe(wait.Seconds())
	}
	j.mu.Unlock()

	g, err := s.store.LoadGraph(j.m.Spec.GraphID)
	if err != nil {
		s.fail(j, err)
		s.finalize(j)
		return
	}

	var elapsed time.Duration
	policy := RetryPolicy{MaxAttempts: s.cfg.maxAttempts(), Backoff: s.cfg.Backoff}
	err = Retry(jobCtx, policy, func(try int) error {
		res, aerr := s.attempt(jobCtx, j, g, try)
		elapsed += res.Elapsed
		return aerr
	})

	switch {
	case err == nil:
		s.complete(j, elapsed)
	case errors.Is(err, errShutdown) || (jobCtx.Err() != nil && s.ctx.Err() != nil):
		// Daemon is exiting (ctx canceled by Close, possibly observed
		// mid-backoff): do NOT write a terminal state. The on-disk
		// manifest still says running/retrying, which is exactly what
		// restart recovery looks for.
		s.log.Info("job_interrupted_by_shutdown",
			"trace_id", j.m.TraceID, "job_id", j.m.ID, "state", string(j.state()),
			"will_resume", true)
		return
	case errors.Is(err, errJobCanceled):
		s.transition(j, JobCanceled, err)
		s.finalize(j)
	default:
		s.fail(j, err)
		s.finalize(j)
	}
}

// attempt runs one enumeration attempt. It returns nil on completion,
// a Permanent error for terminal outcomes, and a plain error for
// retryable ones (spool I/O failure, worker panic, memory-budget trip
// with parallelism left to shed).
func (s *Server) attempt(jobCtx context.Context, j *job, g *mbe.Graph, try int) (mbe.Result, error) {
	j.mu.Lock()
	if j.canceled {
		j.mu.Unlock()
		return mbe.Result{}, Permanent(errJobCanceled)
	}
	deadline := j.deadline
	threads := j.m.EffectiveThreads
	if threads == 0 {
		threads = j.m.Spec.Threads
	}
	spec := j.m.Spec
	prevState := j.m.State
	prevSince := j.stateSince
	j.m.State = JobRunning
	j.m.Attempts = try + 1
	j.stateSince = time.Now()
	m := j.m
	j.mu.Unlock()
	// The engine's width, not the requested count: a serial engine asked
	// for threads still runs one worker, so it reports one and has no
	// parallelism for a memory-budget retry to shed.
	alg, _ := mbe.ParseAlgorithm(spec.Algorithm) // validated at submit
	threads = engine.ID(alg).Width(threads)

	if !time.Now().Before(deadline) {
		return mbe.Result{}, Permanent(fmt.Errorf("%w (budget spent across %d attempts)", errJobDeadline, try))
	}
	s.persist(m)
	s.log.Info("attempt_start",
		"trace_id", m.TraceID, "job_id", m.ID, "attempt", m.Attempts,
		"threads", threads, "from_state", string(prevState),
		"ms_in_state", msSince(prevSince))

	// Server-side fault hook (internal/faultinject): lets tests inject
	// deterministic attempt failures without touching the engines.
	if s.cfg.FaultHook != nil {
		if ferr := s.cfg.FaultHook("server/attempt"); ferr != nil {
			return mbe.Result{}, s.classifyRetryable(j, fmt.Errorf("injected attempt fault: %w", ferr))
		}
	}

	ord, _ := mbe.ParseOrdering(spec.Ordering)
	spoolDir := s.store.SpoolDir(j.m.ID)
	rec := mbe.NewRecorder(mbe.RunInfo{
		Algorithm: alg.String(), Dataset: "job:" + j.m.ID, Threads: threads,
		NU: g.NU(), NV: g.NV(), Edges: g.NumEdges(),
	})
	j.mu.Lock()
	j.rec = rec
	j.mu.Unlock()
	obs.Publish(rec)
	defer func() {
		obs.Unpublish(rec)
		j.mu.Lock()
		j.rec = nil
		j.mu.Unlock()
	}()

	opts := mbe.Options{
		Algorithm:      alg,
		Ordering:       ord,
		Seed:           spec.Seed,
		Tau:            spec.Tau,
		Threads:        threads,
		Context:        jobCtx,
		Deadline:       deadline,
		MaxMemoryBytes: s.cfg.jobMem(spec),
		Obs:            rec,
		SpoolDir:       spoolDir,
		// Exactly-once across attempts and daemon restarts: every
		// attempt after the spool exists resumes from its checkpoint
		// instead of starting over (ckpt compaction drops whatever the
		// failed attempt had half-written).
		Resume:     spool.IsSpool(spoolDir),
		Checkpoint: mbe.CheckpointOptions{Every: s.cfg.CheckpointEvery},
		OnWarning: func(e error) {
			// A torn checkpoint degraded to a from-scratch resume is the one
			// warning operators page on (durable progress was lost): count it
			// and emit a dedicated structured event instead of the generic one.
			var corrupt *ckpt.CorruptError
			if errors.As(e, &corrupt) {
				s.met.ckptCorrupt.Inc()
				s.log.Warn("ckpt_corrupt_recovered", "trace_id", m.TraceID, "job_id", m.ID,
					"path", corrupt.Path, "err", e)
				return
			}
			s.log.Warn("job_warning", "trace_id", m.TraceID, "job_id", m.ID, "err", e)
		},
	}

	// Panic isolation: the engines already recover worker panics into
	// mbe.ErrPanic; this recover is the belt for panics in the server's
	// own wiring, so one poisoned job can never take the daemon down.
	var res mbe.Result
	var err error
	func() {
		defer func() {
			if p := recover(); p != nil {
				err = fmt.Errorf("server: job attempt panicked: %v", p)
			}
		}()
		res, err = mbe.Enumerate(g, opts)
	}()

	// Per-attempt telemetry regardless of outcome: wall time in the run
	// histogram, and whatever this attempt flushed to the spool (the
	// recorder's spool stats are per checkpoint session, so summing per
	// attempt stays correct across resumes).
	s.met.runSeconds.Observe(res.Elapsed.Seconds())
	if snap := rec.Snapshot(); snap.SpoolBytes > 0 {
		s.met.spoolBytes.Add(snap.SpoolBytes)
	}

	if err != nil {
		// Spool I/O errors, worker panics (mbe.ErrPanic), injected
		// faults: the durable prefix survives, so these are retryable.
		return res, s.classifyRetryable(j, err)
	}
	switch res.StopReason {
	case mbe.StopNone:
		return res, nil
	case mbe.StopCanceled:
		if s.ctx.Err() != nil {
			return res, Permanent(errShutdown)
		}
		return res, Permanent(errJobCanceled)
	case mbe.StopDeadline:
		return res, Permanent(fmt.Errorf("%w (after %d attempts; partial results remain readable)", errJobDeadline, try+1))
	case mbe.StopMemoryBudget:
		if threads > 1 {
			// Transient OOM-budget trip: shed parallelism (fewer
			// in-flight task copies) and resume from the checkpoint.
			reduced := threads / 2
			j.mu.Lock()
			j.m.EffectiveThreads = reduced
			j.mu.Unlock()
			s.met.memSheds.Inc()
			s.log.Warn("parallelism_shed",
				"trace_id", m.TraceID, "job_id", m.ID, "attempt", m.Attempts,
				"threads", threads, "reduced_to", reduced)
			return res, s.classifyRetryable(j,
				fmt.Errorf("memory budget exceeded at %d threads, retrying at %d", threads, reduced))
		}
		return res, Permanent(errMemExhausted)
	default:
		return res, Permanent(fmt.Errorf("server: unexpected stop reason %v", res.StopReason))
	}
}

// classifyRetryable records a retryable failure on the manifest
// (state retrying, error preserved) before handing it to Retry.
func (s *Server) classifyRetryable(j *job, err error) error {
	j.mu.Lock()
	j.m.State = JobRetrying
	j.m.Error = err.Error()
	msRunning := msSince(j.stateSince)
	j.stateSince = time.Now()
	m := j.m
	j.mu.Unlock()
	s.persist(m)
	s.met.retries.Inc()
	s.log.Warn("job_retrying",
		"trace_id", m.TraceID, "job_id", m.ID, "attempt", m.Attempts,
		"ms_in_state", msRunning, "err", err)
	return err
}

// complete transitions the job to done: digest the spool, record the
// result, publish it to the result cache.
func (s *Server) complete(j *job, elapsed time.Duration) {
	spoolDir := s.store.SpoolDir(j.m.ID)
	d, err := mbe.SpoolDigest(spoolDir)
	if err != nil {
		// A complete run whose spool does not verify is a bug worth
		// failing loudly over — never serve a corrupt result.
		s.fail(j, fmt.Errorf("server: spool verification after completion: %w", err))
		s.finalize(j)
		return
	}
	// Count the completion and release the admission charge before the
	// job reads as done: a client that saw "done" must not scrape metrics
	// that still count the job as active.
	s.finalize(j)
	s.met.jobsCompleted.With(string(JobDone)).Inc()
	j.mu.Lock()
	j.m.State = JobDone
	j.m.Error = ""
	j.m.Result = &JobResult{
		Count:     d.Count,
		Digest:    d.String(),
		ElapsedMS: float64(elapsed.Microseconds()) / 1e3,
	}
	msRunning := msSince(j.stateSince)
	m := j.m
	j.mu.Unlock()
	s.persist(m)
	s.cacheMu.Lock()
	s.cache[m.CacheKey] = m.ID
	s.cacheMu.Unlock()
	s.log.Info("job_done",
		"trace_id", m.TraceID, "job_id", m.ID, "bicliques", d.Count,
		"attempts", m.Attempts, "elapsed_ms", m.Result.ElapsedMS,
		"ms_in_state", msRunning)
}

// fail transitions the job to its terminal failed state, error kept.
func (s *Server) fail(j *job, err error) {
	s.transition(j, JobFailed, err)
}

// transition moves the job to a terminal state, persisting the manifest
// and emitting the terminal metric + structured event in one place.
func (s *Server) transition(j *job, to JobState, err error) {
	j.mu.Lock()
	from := j.m.State
	j.m.State = to
	if err != nil {
		j.m.Error = err.Error()
	}
	msInState := msSince(j.stateSince)
	m := j.m
	j.mu.Unlock()
	s.persist(m)
	if to.Terminal() {
		s.met.jobsCompleted.With(string(to)).Inc()
	}
	ev, level := "job_"+string(to), slog.LevelInfo
	if to == JobFailed {
		level = slog.LevelError
	}
	s.log.Log(context.Background(), level, ev,
		"trace_id", m.TraceID, "job_id", m.ID, "from_state", string(from),
		"attempts", m.Attempts, "ms_in_state", msInState, "err", m.Error)
}

// finalize releases the job's admission charge exactly once.
func (s *Server) finalize(j *job) {
	j.mu.Lock()
	spec := j.m.Spec
	j.mu.Unlock()
	s.adm.release(s.cfg.jobMem(spec))
}

// persist writes the manifest, logging (not propagating) failures: a
// manifest write error must not wedge the state machine — the in-memory
// state stays authoritative for this process's lifetime, and recovery
// degrades to the previous manifest.
func (s *Server) persist(m Manifest) {
	if err := s.store.WriteManifest(m); err != nil {
		s.log.Error("manifest_write_failed",
			"trace_id", m.TraceID, "job_id", m.ID, "err", err)
	}
}
