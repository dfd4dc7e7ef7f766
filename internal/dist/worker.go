package dist

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"os"
	"sync"
	"time"

	"repro/internal/ckpt"
	"repro/internal/core"
	"repro/internal/datasets"
	"repro/internal/difftest"
	"repro/internal/engine"
	"repro/internal/graph"
	"repro/internal/order"
	"repro/internal/server"
)

// WorkerOptions configures NewWorker.
type WorkerOptions struct {
	// Coord is the coordinator's base URL, e.g. "http://127.0.0.1:7600".
	Coord string
	// ID names this worker in leases and logs; "" derives host-pid.
	ID string
	// Graph, when non-nil, skips the spec's graph locator — the caller
	// already has the graph in memory (in-process clusters, tests). It
	// is still verified against the spec's signature.
	Graph *graph.Bipartite
	// Threads bounds the parallel engine's width; <= 0 means 1. Ignored
	// by the serial engines.
	Threads int
	// Client is the HTTP client; nil uses a default with no overall
	// timeout (streams are long-lived).
	Client *http.Client
	// PollInterval is the wait between lease polls when the coordinator
	// answers 204 (everything currently leased); 0 means 500ms.
	PollInterval time.Duration
	// FlushInterval is the watermark flush cadence; 0 means 200ms.
	FlushInterval time.Duration
	// FaultHook passes through to the engine (test fault injection).
	FaultHook func(site string) error
	// Log receives structured events; nil discards them.
	Log *slog.Logger
}

// Worker enumerates leased root ranges against a coordinator until the
// run completes. One Worker runs one range at a time.
type Worker struct {
	opts   WorkerOptions
	client *http.Client
	log    *slog.Logger

	// Resolved once per process from the config.
	cfg     Config
	eng     engine.ID
	ordered *graph.Bipartite // graph with the spec's V ordering applied
	perm    []int32          // ordered V id -> original V id; nil for none
}

// NewWorker builds a worker. Nothing touches the network until Run.
func NewWorker(opts WorkerOptions) *Worker {
	if opts.ID == "" {
		host, _ := os.Hostname()
		opts.ID = fmt.Sprintf("%s-%d", host, os.Getpid())
	}
	if opts.PollInterval <= 0 {
		opts.PollInterval = 500 * time.Millisecond
	}
	if opts.FlushInterval <= 0 {
		opts.FlushInterval = 200 * time.Millisecond
	}
	client := opts.Client
	if client == nil {
		client = &http.Client{}
	}
	log := opts.Log
	if log == nil {
		log = slog.New(slog.NewTextHandler(io.Discard, &slog.HandlerOptions{Level: slog.LevelError + 1}))
	}
	return &Worker{opts: opts, client: client, log: log}
}

// retryPolicy is the worker's schedule for idempotent control calls
// (config, lease). Stream frames are NOT retried — the stream either
// lives or the range is re-leased — so exactly-once never depends on
// retry semantics.
func (w *Worker) retryPolicy() server.RetryPolicy {
	return server.RetryPolicy{MaxAttempts: 5, Backoff: server.Backoff{Base: 50 * time.Millisecond, Max: 2 * time.Second}}
}

// Run drives the worker loop: fetch config, then lease-enumerate-stream
// until the coordinator reports the run complete (or ctx is canceled).
// A failed range attempt is logged and abandoned — the lease expires at
// the coordinator and is re-issued, possibly to this same worker.
func (w *Worker) Run(ctx context.Context) error {
	if err := w.bootstrap(ctx); err != nil {
		return err
	}
	for {
		if err := ctx.Err(); err != nil {
			return err
		}
		lease, state, err := w.acquireLease(ctx)
		switch {
		case err != nil:
			return err
		case state == leaseRunDone:
			w.log.Info("dist_worker_exit", "worker", w.opts.ID, "reason", "run complete")
			return nil
		case state == leaseNoneAvailable:
			select {
			case <-ctx.Done():
				return ctx.Err()
			case <-time.After(w.opts.PollInterval):
			}
			continue
		}
		if err := w.runRange(ctx, lease); err != nil {
			if ctx.Err() != nil {
				return ctx.Err()
			}
			// Abandon the attempt; the coordinator's janitor re-issues
			// the range from its confirmed watermark.
			w.log.Warn("dist_range_attempt_failed", "worker", w.opts.ID,
				"range", lease.RangeID, "attempt", lease.Attempt, "err", err)
		}
	}
}

// bootstrap fetches the coordinator config, loads and verifies the
// graph, and applies the spec's ordering.
func (w *Worker) bootstrap(ctx context.Context) error {
	var cfg Config
	err := server.Retry(ctx, w.retryPolicy(), func(int) error {
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, w.opts.Coord+"/dist/v1/config", nil)
		if err != nil {
			return server.Permanent(err)
		}
		resp, err := w.client.Do(req)
		if err != nil {
			return err
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			return fmt.Errorf("config: HTTP %d", resp.StatusCode)
		}
		return json.NewDecoder(resp.Body).Decode(&cfg)
	})
	if err != nil {
		return fmt.Errorf("dist: worker %s: %w", w.opts.ID, err)
	}
	if cfg.Version != ProtocolVersion {
		return fmt.Errorf("dist: coordinator speaks protocol v%d, this worker v%d", cfg.Version, ProtocolVersion)
	}
	w.cfg = cfg

	if w.eng, err = cfg.Spec.engineID(); err != nil {
		return err
	}

	g := w.opts.Graph
	if g == nil {
		if g, err = loadSpecGraph(cfg.Spec); err != nil {
			return err
		}
	}
	if err := cfg.Spec.CheckGraph(g); err != nil {
		return err
	}

	k, err := cfg.Spec.orderKind()
	if err != nil {
		return err
	}
	if w.ordered, w.perm, err = order.Permute(g, k, cfg.Spec.OrderSeed); err != nil {
		return fmt.Errorf("dist: ordering: %w", err)
	}
	w.log.Info("dist_worker_ready", "worker", w.opts.ID, "algorithm", cfg.Spec.Algorithm,
		"ordering", cfg.Spec.Ordering, "nv", cfg.Spec.NV, "ranges", cfg.Ranges)
	return nil
}

// loadSpecGraph resolves the spec's graph locator.
func loadSpecGraph(s Spec) (*graph.Bipartite, error) {
	switch {
	case s.Dataset != "":
		spec, found := datasets.ByName(s.Dataset)
		if !found {
			return nil, fmt.Errorf("dist: unknown dataset %q", s.Dataset)
		}
		return spec.Build(), nil
	case s.Path != "":
		return graph.ReadKonectFile(s.Path)
	case s.Bin != "":
		f, err := os.Open(s.Bin)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		return graph.ReadBinary(f)
	}
	return nil, errors.New("dist: spec has no graph locator and the worker was given no graph")
}

type leaseState int

const (
	leaseGranted leaseState = iota
	leaseNoneAvailable
	leaseRunDone
)

// acquireLease asks the coordinator for a range.
func (w *Worker) acquireLease(ctx context.Context) (Lease, leaseState, error) {
	var lease Lease
	state := leaseGranted
	body, _ := json.Marshal(leaseRequest{Worker: w.opts.ID})
	err := server.Retry(ctx, w.retryPolicy(), func(int) error {
		req, err := http.NewRequestWithContext(ctx, http.MethodPost, w.opts.Coord+"/dist/v1/lease", bytes.NewReader(body))
		if err != nil {
			return server.Permanent(err)
		}
		req.Header.Set("Content-Type", "application/json")
		resp, err := w.client.Do(req)
		if err != nil {
			return err
		}
		defer resp.Body.Close()
		switch resp.StatusCode {
		case http.StatusOK:
			state = leaseGranted
			return json.NewDecoder(resp.Body).Decode(&lease)
		case http.StatusNoContent:
			state = leaseNoneAvailable
			return nil
		case http.StatusGone:
			state = leaseRunDone
			return nil
		default:
			return fmt.Errorf("lease: HTTP %d", resp.StatusCode)
		}
	})
	if err != nil {
		return Lease{}, 0, fmt.Errorf("dist: worker %s: %w", w.opts.ID, err)
	}
	return lease, state, nil
}

// runRange enumerates one leased range, streaming watermark deltas as
// the frontier advances and a final done frame when the range subtree
// is exhausted.
func (w *Worker) runRange(ctx context.Context, lease Lease) error {
	rctx, cancel := context.WithCancelCause(ctx)
	defer cancel(nil)

	// A lease resuming at the range end has nothing left to enumerate: a
	// prior attempt streamed every root's delta but its done frame never
	// landed (crash, or the coordinator restarted between the final wm
	// frame and the seal). Send the empty done frame the protocol owes.
	if lease.Resume >= lease.End {
		st, err := w.openStream(rctx, cancel, lease)
		if err != nil {
			return err
		}
		dj, tj := ToJSON(difftest.Digest{}), ToJSON(difftest.Digest{})
		if err := st.send(Frame{Type: "done", From: lease.Resume, To: lease.End, Delta: &dj, Total: &tj}); err != nil {
			return fmt.Errorf("range %d attempt %d: empty done frame: %w", lease.RangeID, lease.Attempt, err)
		}
		if err := st.finish(); err != nil {
			return fmt.Errorf("range %d attempt %d: %w", lease.RangeID, lease.Attempt, err)
		}
		w.log.Info("dist_range_sealed_empty", "worker", w.opts.ID,
			"range", lease.RangeID, "attempt", lease.Attempt)
		return nil
	}

	threads := max(w.opts.Threads, 1)
	sink := newRangeSink(w.perm, lease.Resume, lease.End, w.eng.Width(threads))
	frontier := ckpt.NewFrontier(lease.Resume, lease.End)

	st, err := w.openStream(rctx, cancel, lease)
	if err != nil {
		return err
	}

	// The flusher turns frontier progress into wm frames at FlushInterval
	// cadence and falls back to hb frames when the watermark is parked
	// (deep subtree): either way the lease's heartbeat stays fresh. It
	// owns prog until it is stopped, so the final done frame (sent after
	// stopFlush is closed and drained) never races a wm frame.
	prog := &rangeProgress{sent: lease.Resume}
	hbEvery := time.Duration(lease.TTLMS) * time.Millisecond / 3
	if hbEvery <= 0 {
		hbEvery = DefaultLeaseTTL / 3
	}
	stopFlush := make(chan struct{})
	flushDone := make(chan struct{})
	go func() {
		defer close(flushDone)
		t := time.NewTicker(w.opts.FlushInterval)
		defer t.Stop()
		for {
			select {
			case <-stopFlush:
				return
			case <-rctx.Done():
				return
			case <-t.C:
				if err := w.flushWatermark(st, sink, frontier, prog, hbEvery); err != nil {
					// Stream gone: stop the enumeration, the attempt is over.
					cancel(err)
					return
				}
			}
		}
	}()

	res, runErr := w.eng.Run(w.ordered, core.Options{
		Tau:       w.cfg.Spec.Tau,
		Threads:   threads,
		Context:   rctx,
		FaultHook: w.opts.FaultHook,
		Sink:      sink,
		Frontier:  frontier,
		StartRoot: lease.Resume,
		EndRoot:   lease.End,
	})
	close(stopFlush)
	<-flushDone

	if cause := context.Cause(rctx); cause != nil && !errors.Is(cause, context.Canceled) {
		st.abort(cause)
		return fmt.Errorf("range %d attempt %d: stream failed: %w", lease.RangeID, lease.Attempt, cause)
	}
	if runErr != nil || res.StopReason != core.StopNone || !frontier.Complete() {
		err := fmt.Errorf("range %d attempt %d: enumeration stopped (%v, reason %v)",
			lease.RangeID, lease.Attempt, runErr, res.StopReason)
		st.abort(err)
		return err
	}

	// Final frame: the tail interval [sent, End) plus the attempt total.
	prog.mu.Lock()
	delta := sink.drain(prog.sent, lease.End)
	from := prog.sent
	prog.total.Merge(delta)
	total := prog.total
	prog.sent = lease.End
	prog.mu.Unlock()
	dj, tj := ToJSON(delta), ToJSON(total)
	if err := st.send(Frame{Type: "done", From: from, To: lease.End, Delta: &dj, Total: &tj}); err != nil {
		return fmt.Errorf("range %d attempt %d: done frame: %w", lease.RangeID, lease.Attempt, err)
	}
	if err := st.finish(); err != nil {
		return fmt.Errorf("range %d attempt %d: %w", lease.RangeID, lease.Attempt, err)
	}
	w.log.Info("dist_range_streamed", "worker", w.opts.ID, "range", lease.RangeID,
		"attempt", lease.Attempt, "bicliques", total.Count)
	return nil
}

// rangeProgress tracks what this attempt has streamed. sent is the
// exclusive end of the last streamed interval; total is the merge of
// every streamed delta (the done frame's cross-check value).
type rangeProgress struct {
	mu        sync.Mutex
	sent      int32
	total     difftest.Digest
	lastFrame time.Time
}

// flushWatermark sends one wm frame if the frontier advanced past what
// was already streamed, or an hb frame if the stream has been silent for
// a third of the TTL.
func (w *Worker) flushWatermark(st *stream, sink *rangeSink, frontier *ckpt.Frontier, prog *rangeProgress, hbEvery time.Duration) error {
	wm := frontier.Watermark()
	prog.mu.Lock()
	defer prog.mu.Unlock()
	if wm > prog.sent {
		delta := sink.drain(prog.sent, wm)
		dj := ToJSON(delta)
		f := Frame{Type: "wm", From: prog.sent, To: wm, Delta: &dj}
		if err := st.send(f); err != nil {
			return err
		}
		prog.total.Merge(delta)
		prog.sent = wm
		prog.lastFrame = time.Now()
		return nil
	}
	if time.Since(prog.lastFrame) >= hbEvery {
		if err := st.send(Frame{Type: "hb"}); err != nil {
			return err
		}
		prog.lastFrame = time.Now()
	}
	return nil
}

// stream is one NDJSON frame stream over a chunked HTTP POST. Frames
// are written to an io.Pipe that the transport streams to the
// coordinator; the response (200 on clean EOF, 409 on fencing
// rejection) arrives when the handler returns.
type stream struct {
	mu  sync.Mutex
	enc *json.Encoder
	pw  *io.PipeWriter

	respCh chan streamOutcome
}

type streamOutcome struct {
	code int
	body streamResult
	err  error
}

// openStream starts the range's frame stream. If the coordinator rejects
// the stream mid-flight (fencing), the response arrives early and
// cancels the range context via cancel.
func (w *Worker) openStream(ctx context.Context, cancel context.CancelCauseFunc, lease Lease) (*stream, error) {
	pr, pw := io.Pipe()
	url := fmt.Sprintf("%s/dist/v1/ranges/%d/stream?attempt=%d&worker=%s",
		w.opts.Coord, lease.RangeID, lease.Attempt, w.opts.ID)
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, pr)
	if err != nil {
		pw.Close()
		return nil, err
	}
	req.Header.Set("Content-Type", "application/x-ndjson")
	st := &stream{enc: json.NewEncoder(pw), pw: pw, respCh: make(chan streamOutcome, 1)}
	go func() {
		resp, err := w.client.Do(req)
		out := streamOutcome{err: err}
		if err == nil {
			out.code = resp.StatusCode
			json.NewDecoder(resp.Body).Decode(&out.body) //nolint:errcheck // reason is best-effort
			resp.Body.Close()
		}
		if out.err != nil && ctx.Err() == nil {
			cancel(fmt.Errorf("dist: stream transport: %w", out.err))
		} else if out.err == nil && out.code != http.StatusOK {
			cancel(fmt.Errorf("dist: stream rejected: HTTP %d: %s", out.code, out.body.Reason))
		}
		st.respCh <- out
	}()
	return st, nil
}

// send writes one frame. Safe for use by the flusher goroutine and the
// final done-frame path (which are serialized anyway); the mutex is for
// the encoder's buffer.
func (s *stream) send(f Frame) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.enc.Encode(f)
}

// finish closes the stream cleanly and waits for the coordinator's
// verdict.
func (s *stream) finish() error {
	s.pw.Close()
	out := <-s.respCh
	if out.err != nil {
		return fmt.Errorf("stream: %w", out.err)
	}
	if out.code != http.StatusOK || !out.body.OK {
		return fmt.Errorf("stream rejected: HTTP %d: %s", out.code, out.body.Reason)
	}
	return nil
}

// abort tears the stream down without waiting for a verdict.
func (s *stream) abort(cause error) {
	s.pw.CloseWithError(cause)
	<-s.respCh
}

// rangeSink accumulates one digest per root of the leased range. It
// satisfies core's Sink interface structurally. Emission order within a
// root is irrelevant (digests are commutative); different engine workers
// may emit for the same root concurrently (stolen subtree tasks), so the
// per-root digests are guarded by striped locks. drain is safe against
// concurrent Emit because the frontier watermark guarantees no further
// emissions for roots below it, and the stripe locks order memory.
type rangeSink struct {
	perm    []int32 // ordered V id -> original id for the R side; nil = identity
	base    int32
	digests []difftest.Digest
	locks   [64]sync.Mutex
	scratch [][]int32
}

func newRangeSink(perm []int32, start, end int32, workers int) *rangeSink {
	return &rangeSink{
		perm:    perm,
		base:    start,
		digests: make([]difftest.Digest, end-start),
		scratch: make([][]int32, workers),
	}
}

// Emit fingerprints one biclique into its root's digest. R is mapped
// back to the original graph's id space first, so digests compare
// directly against a single-process run's (the engine reports R in the
// ordered id space; L is the U side and never permuted).
func (s *rangeSink) Emit(worker int, root int32, L, R []int32) {
	if s.perm != nil {
		m := s.scratch[worker%len(s.scratch)][:0]
		for _, v := range R {
			m = append(m, s.perm[v])
		}
		s.scratch[worker%len(s.scratch)] = m
		R = m
	}
	fp := difftest.Fingerprint(L, R)
	i := root - s.base
	lk := &s.locks[i&63]
	lk.Lock()
	s.digests[i].Add(fp)
	lk.Unlock()
}

// drain merges the digests of roots [from, to) — call only for roots at
// or below the frontier watermark.
func (s *rangeSink) drain(from, to int32) difftest.Digest {
	var d difftest.Digest
	for r := from; r < to; r++ {
		i := r - s.base
		lk := &s.locks[i&63]
		lk.Lock()
		d.Merge(s.digests[i])
		lk.Unlock()
	}
	return d
}
