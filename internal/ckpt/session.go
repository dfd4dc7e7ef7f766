package ckpt

import (
	"errors"
	"fmt"
	"slices"
	"sync"
	"time"

	"repro/internal/spool"
)

// Session ties a spool writer, a frontier, and the checkpoint file into
// one resumable run. Both the public mbe layer and the difftest harness
// drive enumeration through a Session so resume semantics live in
// exactly one place:
//
//	sess, _ := ckpt.Open(ckpt.OpenOptions{Dir: dir, Meta: meta, Resume: resume})
//	if sess.AlreadyComplete() { ... nothing to do ... }
//	// wire sess.Sink(perm, workers), sess.Frontier(), sess.StartRoot()
//	// into the engine, sess.Start() the checkpoint ticker, enumerate,
//	err := sess.Finish(ranToCompletion)
type Session struct {
	dir      string
	meta     spool.Meta
	every    time.Duration
	durable  bool
	writer   *spool.Writer
	frontier *Frontier
	start    int32
	complete bool // spool was already complete at Open

	ckptMu sync.Mutex
	seq    int64

	tickStop chan struct{}
	tickDone chan struct{}
}

// OpenOptions configures Open.
type OpenOptions struct {
	// Dir is the spool directory (created if absent when not resuming).
	Dir string
	// Meta describes the CURRENT run. On create it is written verbatim;
	// on resume it is checked against the stored meta (graph signature,
	// ordering, seed must match — algorithm/τ/shard-modulus may differ).
	Meta spool.Meta
	// Resume appends to an existing spool instead of creating one.
	Resume bool
	// Every is the checkpoint cadence for Start. 0 means DefaultEvery;
	// negative disables the ticker (checkpoints only on demand/Finish).
	Every time.Duration
	// Writer passes through to the spool writer (fsync mode, frame
	// size, fault-injection wrapper, error callback).
	Writer spool.WriterOptions
	// OnWarn, if non-nil, receives recoverable resume anomalies — today
	// a torn/truncated checkpoint.json (*CorruptError), which Open
	// degrades to a from-scratch resume over the same spool instead of
	// failing the run. nil drops the warnings.
	OnWarn func(error)
}

// Open creates a fresh spooled run or resumes an interrupted one.
//
// Resume sequence: validate meta compatibility, load the checkpoint
// (missing file ⇒ watermark 0), compact every shard down to records
// with root < watermark — dropping both corrupt tails and the partial
// output of subtrees that were in flight at the interrupt — then reopen
// the shards for append. Enumeration restarts at the watermark.
func Open(opts OpenOptions) (*Session, error) {
	s := &Session{
		dir:     opts.Dir,
		meta:    opts.Meta,
		every:   opts.Every,
		durable: opts.Writer.Fsync != spool.FsyncNever,
	}
	if s.every == 0 {
		s.every = DefaultEvery
	}

	if !opts.Resume {
		w, err := spool.Create(opts.Dir, opts.Meta, opts.Writer)
		if err != nil {
			return nil, err
		}
		s.writer = w
		s.frontier = NewFrontier(0, int32(opts.Meta.NV))
		// An initial checkpoint so that interrupting before the first
		// tick still leaves a well-formed (watermark-0) resume point.
		if err := s.Checkpoint(); err != nil {
			w.Close()
			return nil, err
		}
		return s, nil
	}

	have, err := spool.LoadMeta(opts.Dir)
	if err != nil {
		return nil, fmt.Errorf("ckpt: resume: %w", err)
	}
	if err := spool.CompatibleResume(have, opts.Meta); err != nil {
		return nil, err
	}
	ck, found, err := Load(opts.Dir)
	if err != nil {
		// A torn checkpoint is recoverable: the spool frames are
		// self-validating, so resuming from watermark 0 re-derives a
		// correct (if emptier) durable prefix. Anything else is fatal.
		var corrupt *CorruptError
		if !errors.As(err, &corrupt) {
			return nil, err
		}
		if opts.OnWarn != nil {
			opts.OnWarn(corrupt)
		}
		ck, found = Checkpoint{}, false
	}
	if found && ck.Complete {
		s.complete = true
		s.start = int32(have.NV)
		s.frontier = NewFrontier(s.start, int32(have.NV))
		return s, nil
	}
	s.start = ck.Watermark // zero when no checkpoint was found
	if s.start > int32(have.NV) {
		return nil, fmt.Errorf("ckpt: watermark %d exceeds graph V side %d", s.start, have.NV)
	}
	s.seq = ck.Seq
	w := s.start
	if err := spool.CompactBelow(opts.Dir, func(root int32) bool { return root < w }); err != nil {
		return nil, fmt.Errorf("ckpt: resume compaction: %w", err)
	}
	sw, err := spool.OpenAppend(opts.Dir, opts.Writer)
	if err != nil {
		return nil, err
	}
	s.writer = sw
	s.frontier = NewFrontier(s.start, int32(have.NV))
	// Re-checkpoint immediately: the compacted shards are the new
	// durable truth, and the old shard offsets no longer apply.
	if err := s.Checkpoint(); err != nil {
		sw.Close()
		return nil, err
	}
	return s, nil
}

// AlreadyComplete reports that the spool's checkpoint marks the run
// finished: there is nothing to enumerate and the writer is not open.
func (s *Session) AlreadyComplete() bool { return s.complete }

// StartRoot is the root vertex (engine order) enumeration must start
// from: 0 for a fresh run, the checkpoint watermark on resume.
func (s *Session) StartRoot() int32 { return s.start }

// Frontier returns the run's frontier tracker (plugs into
// core.Options.Frontier).
func (s *Session) Frontier() *Frontier { return s.frontier }

// Stats snapshots the writer's flushed-output counters.
func (s *Session) Stats() spool.Stats {
	if s.writer == nil {
		return spool.Stats{}
	}
	return s.writer.Stats()
}

// Sink adapts the writer into a core emission sink, mapping the R side
// back through perm (the V permutation the engine ran under; nil for
// identity). Root tags stay in ENGINE order — that is the order the
// watermark and StartRoot live in — while stored vertex ids are
// original-graph ids. The mapped R is sorted in per-worker scratch, so
// the writer encodes it without a second copy, and the hot path stays
// allocation-free under unordered concurrent emission.
func (s *Session) Sink(perm []int32, workers int) *Sink {
	if workers < 1 {
		workers = 1
	}
	return &Sink{w: s.writer, perm: perm, scratch: make([][]int32, workers)}
}

// Sink is the emission adapter returned by Session.Sink. It satisfies
// core's Sink interface structurally.
type Sink struct {
	w       *spool.Writer
	perm    []int32
	scratch [][]int32
}

// Emit writes one biclique. Safe for concurrent use by distinct
// workers; a single worker's calls must be sequential (they are — each
// engine owns its worker id).
func (k *Sink) Emit(worker int, root int32, L, R []int32) {
	if k.perm != nil {
		m := k.scratch[worker%len(k.scratch)][:0]
		for _, v := range R {
			m = append(m, k.perm[v])
		}
		slices.Sort(m)
		k.scratch[worker%len(k.scratch)] = m
		R = m
	}
	k.w.Emit(worker, root, L, R)
}

// Start launches the periodic checkpoint ticker. No-op if the cadence
// is negative or the run is already complete. Stop it via Finish.
func (s *Session) Start() {
	if s.every < 0 || s.writer == nil || s.tickStop != nil {
		return
	}
	s.tickStop = make(chan struct{})
	s.tickDone = make(chan struct{})
	go func() {
		defer close(s.tickDone)
		t := time.NewTicker(s.every)
		defer t.Stop()
		for {
			select {
			case <-t.C:
				// Ticker checkpoints are best-effort: a write error is
				// sticky in the writer and surfaces through Finish.
				s.Checkpoint() //nolint:errcheck
			case <-s.tickStop:
				return
			}
		}
	}()
}

// Checkpoint flushes all shards to durable storage and atomically
// writes a checkpoint claiming the current watermark. The watermark is
// read BEFORE the flush: anything it promises was emitted before the
// read, hence is inside the flushed prefix — the safe ordering.
func (s *Session) Checkpoint() error {
	s.ckptMu.Lock()
	defer s.ckptMu.Unlock()
	return s.checkpointLocked(false)
}

func (s *Session) checkpointLocked(complete bool) error {
	wm := s.frontier.Watermark()
	offsets, err := s.writer.SyncAll()
	if err != nil {
		return err
	}
	s.seq++
	ck := Checkpoint{
		Version:      Version,
		Watermark:    wm,
		Complete:     complete,
		ShardOffsets: offsets,
		Records:      s.writer.Stats().Records,
		Seq:          s.seq,
		WrittenAt:    time.Now().UTC().Format(time.RFC3339),
	}
	if complete {
		ck.Watermark = int32(s.meta.NV)
	}
	return ck.Write(s.dir, s.durable)
}

// Finish stops the ticker and writes the final checkpoint. complete
// should be true only when enumeration ran to the end (StopNone): the
// checkpoint is then marked Complete and a later -resume is a no-op.
// When the run was interrupted, the final checkpoint captures the
// frozen watermark so a resume restarts exactly there. If the writer
// failed mid-run, the LAST GOOD checkpoint is kept (writing a new one
// could claim unflushed data) and the write error is returned.
func (s *Session) Finish(complete bool) error {
	if s.tickStop != nil {
		close(s.tickStop)
		<-s.tickDone
		s.tickStop = nil
	}
	if s.writer == nil { // AlreadyComplete
		return nil
	}
	s.ckptMu.Lock()
	defer s.ckptMu.Unlock()

	if !complete {
		s.frontier.Freeze()
	}
	complete = complete && s.frontier.Complete()

	var err error
	if werr := s.writer.Err(); werr != nil {
		err = werr // keep the last good checkpoint
	} else {
		err = s.checkpointLocked(complete)
	}
	if cerr := s.writer.Close(); err == nil && cerr != nil {
		err = cerr
	}
	return err
}
