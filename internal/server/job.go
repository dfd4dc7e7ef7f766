package server

import (
	"fmt"
	"strings"
	"sync"
	"time"

	mbe "repro"
	"repro/internal/engine"
	"repro/internal/obs"
)

// JobState is one node of the job lifecycle state machine:
//
//	queued ──▶ running ──▶ done
//	  │           │  ▲
//	  │           ▼  │ (retryable failure, attempts left)
//	  │        retrying
//	  │           │ (budget exhausted / permanent)
//	  ▼           ▼
//	canceled    failed
//
// done, failed and canceled are terminal. A daemon crash can leave a
// manifest in queued/running/retrying; restart recovery re-enqueues
// those, resuming from the job's checkpoint (see Server recovery).
type JobState string

const (
	JobQueued   JobState = "queued"
	JobRunning  JobState = "running"
	JobRetrying JobState = "retrying"
	JobDone     JobState = "done"
	JobFailed   JobState = "failed"
	JobCanceled JobState = "canceled"
)

// Terminal reports whether the state can never change again.
func (s JobState) Terminal() bool {
	return s == JobDone || s == JobFailed || s == JobCanceled
}

// JobSpec is a client's enumeration request — the body of POST
// /v1/jobs. Zero values mean the server defaults.
type JobSpec struct {
	// GraphID names a graph previously stored via POST /v1/graphs (or
	// the dataset shortcut there).
	GraphID string `json:"graph_id"`
	// Algorithm is a mbe.ParseAlgorithm spelling of a rooted engine
	// (engine.RootedNames): daemon jobs stream to a durable spool, which
	// the paper competitors do not support. Empty means AdaMBE, or
	// ParAdaMBE when the resolved thread count exceeds 1.
	Algorithm string `json:"algorithm,omitempty"`
	// Ordering is a mbe.ParseOrdering spelling; Seed feeds "rand".
	Ordering string `json:"ordering,omitempty"`
	Seed     int64  `json:"seed,omitempty"`
	// Tau is the bitmap threshold τ; 0 = 64.
	Tau int `json:"tau,omitempty"`
	// Threads for ParAdaMBE; 0 = the server's per-job default. A
	// memory-budget retry halves this.
	Threads int `json:"threads,omitempty"`
	// DeadlineMS is the job's total wall budget across all attempts;
	// 0 = the server default. Exceeding it is a terminal failure (the
	// partial spool stays readable).
	DeadlineMS int64 `json:"deadline_ms,omitempty"`
	// MaxMemoryBytes is the job's soft engine-memory budget; 0 = the
	// server's per-job default. It is also the job's admission-control
	// charge against the server memory budget.
	MaxMemoryBytes int64 `json:"max_memory_bytes,omitempty"`
}

// Validate resolves and checks the spec against server defaults.
func (s JobSpec) Validate() error {
	if s.GraphID == "" {
		return fmt.Errorf("graph_id is required")
	}
	a, err := mbe.ParseAlgorithm(s.Algorithm)
	if err != nil {
		return err
	}
	if err := engine.ID(a).CheckRooted(); err != nil {
		return err
	}
	if _, err := mbe.ParseOrdering(s.Ordering); err != nil {
		return err
	}
	if s.Threads < 0 || s.Tau < 0 || s.DeadlineMS < 0 || s.MaxMemoryBytes < 0 {
		return fmt.Errorf("threads, tau, deadline_ms and max_memory_bytes must be >= 0")
	}
	return nil
}

// CacheKey is the result-cache identity of the spec over a graph: the
// graph signature plus every option that identifies the run's spool
// (algorithm/τ/threads deliberately excluded — they change the
// traversal, not the maximal-biclique multiset; ordering+seed stay in
// because they pin the root decomposition a resumable spool is keyed
// by, so equal keys can share a spool byte-for-byte).
func (s JobSpec) CacheKey() string {
	ord := s.Ordering
	if ord == "" {
		ord = "asc"
	}
	return strings.Join([]string{s.GraphID, ord, fmt.Sprint(s.Seed)}, "|")
}

// JobResult is the outcome recorded on a done job.
type JobResult struct {
	// Count is the number of maximal bicliques in the spool.
	Count int64 `json:"count"`
	// Digest is the order-invariant multiset digest of the output, in
	// the same form `mbe cat -digest` prints — compare it against any
	// other enumeration of the graph.
	Digest string `json:"digest"`
	// ElapsedMS sums the enumeration wall time across attempts.
	ElapsedMS float64 `json:"elapsed_ms"`
	// CacheHit marks a job served from the result cache without
	// enumerating anything.
	CacheHit bool `json:"cache_hit,omitempty"`
}

// Manifest is the crash-safe on-disk record of a job (job.json in the
// job's directory), written atomically (temp + fsync + rename, the
// internal/ckpt discipline) at every state transition. After kill -9,
// the manifests are the daemon's recovery truth.
type Manifest struct {
	ID       string   `json:"id"`
	Spec     JobSpec  `json:"spec"`
	State    JobState `json:"state"`
	CacheKey string   `json:"cache_key"`
	// TraceID is the job's correlation id (client-supplied X-MBE-Trace
	// or daemon-minted at submit). Persisting it here is what makes a
	// trace survive kill -9: recovery re-logs the job under the same id.
	TraceID string `json:"trace_id,omitempty"`
	// Attempts counts started attempts; Error preserves the terminal
	// (or most recent retryable) failure.
	Attempts int    `json:"attempts,omitempty"`
	Error    string `json:"error,omitempty"`
	// EffectiveThreads is the parallel width the next attempt will use
	// (memory-budget retries reduce it); 0 = spec/server default.
	EffectiveThreads int        `json:"effective_threads,omitempty"`
	Result           *JobResult `json:"result,omitempty"`
	CreatedAt        string     `json:"created_at"`
	UpdatedAt        string     `json:"updated_at"`
}

// job is the in-memory wrapper: the manifest plus runtime state the
// disk does not need (cancel hook, live recorder).
type job struct {
	mu       sync.Mutex
	m        Manifest
	cancel   func()        // cancels the running attempt's context
	rec      *obs.Recorder // live progress while an attempt runs
	canceled bool          // user asked; checked between attempts
	deadline time.Time     // absolute wall deadline, set at first attempt
	// enqueuedAt is when the job entered the executor queue (submit, or
	// restart recovery) — the queue-wait histogram's start mark. Kept in
	// memory: recovered jobs measure their wait from re-enqueue, which
	// is the wait the restarted daemon is accountable for.
	enqueuedAt time.Time
	// stateSince stamps the last state transition so each transition
	// event can report how long the job spent in the state it left.
	stateSince time.Time
}

// msSince reports elapsed milliseconds since t, 0 for a zero time.
func msSince(t time.Time) float64 {
	if t.IsZero() {
		return 0
	}
	return float64(time.Since(t).Microseconds()) / 1e3
}

// manifest returns a copy of the job's manifest under the lock.
func (j *job) manifest() Manifest {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.m
}

// state returns the current state under the lock.
func (j *job) state() JobState {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.m.State
}

// snapshot returns the live progress of a running attempt, or nil.
func (j *job) snapshot() *obs.Snapshot {
	j.mu.Lock()
	rec := j.rec
	j.mu.Unlock()
	if rec == nil {
		return nil
	}
	s := rec.Snapshot()
	return &s
}
