// Package obs is the live observability layer for enumeration runs: a
// long AdaMBE/ParAdaMBE run (the paper's billion-biclique workloads take
// minutes to hours) must be inspectable *while it runs*, not only after
// core.Metrics is merged at the end.
//
// The layer has four pieces, all stdlib-only:
//
//   - Recorder / WorkerProbe: live per-worker counters (nodes expanded
//     with the LN vs BIT split, bicliques emitted, bitmaps built, tasks,
//     steals, root-frontier cursor) and busy/steal/park state that any
//     goroutine can snapshot mid-run without stopping workers.
//   - Sampler (sampler.go): a goroutine that periodically snapshots a
//     Recorder, derives throughput and a root-frontier ETA, and emits
//     structured JSONL events (run_start, sample, phase, worker_stall,
//     run_end) through a pluggable Sink.
//   - runtime/trace helper (trace.go): the region wrapper the engines
//     use to annotate scheduler tasks and BIT subtrees for `go tool
//     trace`.
//   - /debug HTTP endpoint (http.go): expvar + net/http/pprof + a
//     /debug/progress JSON view of the currently published Recorder.
//
// Cost contract: the engine counts every event once, with a plain
// increment on a Counters field its worker owns, whether or not a
// Recorder is attached. An attached Recorder adds only the publish: one
// copy of the counters into atomics on a worker-private cache line at
// each amortized stop-check poll (every tle.CheckEvery nodes, and at each
// parallel task start). Nothing on the per-node path is atomic, and
// TestOverheadSmoke guards the enabled-vs-disabled gap.
package obs

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/tle"
)

// WorkerState is the live scheduling state of one enumeration worker, as
// exposed in snapshots and the worker-utilization timeline.
type WorkerState int32

const (
	// StateIdle: the worker has not started (or the run has not begun).
	StateIdle WorkerState = iota
	// StateBusy: executing enumeration work.
	StateBusy
	// StateStealing: between tasks, sweeping sibling deques for work.
	StateStealing
	// StateParked: blocked waiting for work to appear.
	StateParked
	// StateDone: the worker exited (pool drained or run stopped).
	StateDone
)

// String names the state as used in the JSON schema.
func (s WorkerState) String() string {
	switch s {
	case StateIdle:
		return "idle"
	case StateBusy:
		return "busy"
	case StateStealing:
		return "steal"
	case StateParked:
		return "park"
	case StateDone:
		return "done"
	default:
		return fmt.Sprintf("state(%d)", int32(s))
	}
}

// Counters are one worker's event counts. The owning worker keeps them as
// plain fields — one increment per event, no atomics — and copies them to
// its WorkerProbe with Publish; snapshots read the published copy.
type Counters struct {
	NodesLN    int64 // enumeration-tree nodes expanded in LN / list mode
	NodesBit   int64 // nodes expanded inside bitmap (BIT) subtrees
	Bicliques  int64 // maximal bicliques found by this worker
	Bitmaps    int64 // bitmap CGs materialized
	Promotions int64 // LN→BIT subtree promotions at the τ boundary
	ArenaReuse int64 // spawn detach copies served from the node arena
	Tasks      int64 // scheduler tasks run (parallel runs)
	Steals     int64 // tasks run that another worker queued
	Root       int64 // highest root (first-level V index) entered, +1
}

// WorkerProbe is one worker's published counters and scheduling state.
// Every method is safe on a nil receiver (the disabled path) and safe for
// one writer (the owning worker) with any number of concurrent snapshot
// readers. The struct is padded so two workers' probes never share a
// cache line.
type WorkerProbe struct {
	nodesLN    atomic.Int64
	nodesBit   atomic.Int64
	bicliques  atomic.Int64
	bitmaps    atomic.Int64
	promotes   atomic.Int64
	arenaReuse atomic.Int64
	tasks      atomic.Int64
	steals     atomic.Int64
	root       atomic.Int64
	state      atomic.Int32 // WorkerState
	_          [64]byte     // pad to keep neighboring probes off this line
}

// Publish makes c the worker's visible counts. The owner calls it at its
// amortized stop-check poll and once more when it exits, so a snapshot
// lags the worker by at most one poll quantum. Counts only grow, so
// every published field is monotone.
func (p *WorkerProbe) Publish(c *Counters) {
	if p == nil {
		return
	}
	p.nodesLN.Store(c.NodesLN)
	p.nodesBit.Store(c.NodesBit)
	p.bicliques.Store(c.Bicliques)
	p.bitmaps.Store(c.Bitmaps)
	p.promotes.Store(c.Promotions)
	p.arenaReuse.Store(c.ArenaReuse)
	p.tasks.Store(c.Tasks)
	p.steals.Store(c.Steals)
	p.root.Store(c.Root)
}

// SetState publishes the worker's scheduling state.
func (p *WorkerProbe) SetState(s WorkerState) {
	if p != nil {
		p.state.Store(int32(s))
	}
}

// RunInfo is the static description of one enumeration run, supplied by
// the caller that builds the Recorder (typically a cmd).
type RunInfo struct {
	// Algorithm is the paper name of the algorithm ("AdaMBE", "ParAdaMBE").
	Algorithm string
	// Dataset names the input (dataset acronym or file path). Optional.
	Dataset string
	// Threads is the requested parallel width (1 for serial runs).
	Threads int
	// NU, NV, Edges describe the graph. Optional, but NV doubles as the
	// default root-frontier size if RunBegin passes 0.
	NU, NV int
	Edges  int64
}

// runSeq disambiguates RunIDs within a process.
var runSeq atomic.Int64

// Recorder is the per-run hub of the live counters: one WorkerProbe per
// worker plus run-level state (phase, stop/budget view, frontier). Create
// one per enumeration, pass it via Options.Obs, and Publish it to make it
// visible to the /debug endpoint.
type Recorder struct {
	info    RunInfo
	id      string
	started time.Time

	mu      sync.Mutex // guards workers growth
	workers atomic.Pointer[[]*WorkerProbe]

	phase     atomic.Pointer[string]
	frontier  atomic.Int64 // root candidates total (|V| of the ordered graph)
	shared    atomic.Pointer[tle.Shared]
	deadline  atomic.Int64 // unix nanos; 0 = none
	memBudget atomic.Int64 // Options.MaxMemoryBytes; 0 = none
	finalStop atomic.Pointer[string]

	// spoolStats, when attached, reads the run's durable-spool counters
	// (flushed bytes/frames/records, fsyncs) for inclusion in snapshots.
	spoolStats atomic.Pointer[func() SpoolStats]
}

// SpoolStats are the durable-emission gauges a spooled run exposes in
// its snapshots: cumulative flushed output, not in-memory buffers. The
// shape mirrors internal/spool's writer stats; obs declares its own
// copy so the dependency points spool-ward only at the wiring layer.
type SpoolStats struct {
	Bytes   int64
	Frames  int64
	Records int64
	Fsyncs  int64
}

// SetSpoolStats attaches a reader for the run's spool counters. fn must
// be safe to call from any goroutine at any point in the run. A nil
// Recorder ignores the call.
func (r *Recorder) SetSpoolStats(fn func() SpoolStats) {
	if r == nil || fn == nil {
		return
	}
	r.spoolStats.Store(&fn)
}

// NewRecorder builds a Recorder for one run. Workers are materialized by
// RunBegin (or lazily by Worker).
func NewRecorder(info RunInfo) *Recorder {
	r := &Recorder{info: info, started: time.Now()}
	r.id = fmt.Sprintf("r%d-%d", runSeq.Add(1), r.started.UnixNano())
	phase := "setup"
	r.phase.Store(&phase)
	empty := []*WorkerProbe{}
	r.workers.Store(&empty)
	return r
}

// RunID returns the process-unique id of this run. Pollers use it to
// detect that the published run changed between two /debug/progress reads.
func (r *Recorder) RunID() string { return r.id }

// Info returns the static run description.
func (r *Recorder) Info() RunInfo { return r.info }

// Started returns the recorder's creation time (the elapsed baseline).
func (r *Recorder) Started() time.Time { return r.started }

// RunConfig is what the engine front door knows when a run starts and the
// Recorder's builder (a cmd, the bench harness) does not: the effective
// worker count, the run's shared stop state and budgets, and the
// root-frontier size.
type RunConfig struct {
	Workers int
	// Shared is the run's tle stop state; snapshots read its memory gauge
	// and stop reason live.
	Shared *tle.Shared
	// Deadline and MemBudgetBytes mirror the run's tle budgets so
	// snapshots can show headroom, not just consumption.
	Deadline       time.Time
	MemBudgetBytes int64
	// Frontier is the number of root candidates (|V| of the ordered
	// graph); 0 falls back to RunInfo.NV.
	Frontier int64
}

// RunBegin is called by the engine front door when enumeration starts: it
// sizes the worker probe set, attaches the run's shared stop state and
// budgets so snapshots can surface the memory gauge and stop reason, sets
// the root-frontier size, and flips the phase to "enumerate".
func (r *Recorder) RunBegin(cfg RunConfig) {
	if r == nil {
		return
	}
	r.ensureWorkers(cfg.Workers)
	if cfg.Shared != nil {
		r.shared.Store(cfg.Shared)
	}
	if !cfg.Deadline.IsZero() {
		r.deadline.Store(cfg.Deadline.UnixNano())
	}
	if cfg.MemBudgetBytes > 0 {
		r.memBudget.Store(cfg.MemBudgetBytes)
	}
	if cfg.Frontier > 0 {
		r.frontier.Store(cfg.Frontier)
	} else if r.info.NV > 0 {
		r.frontier.Store(int64(r.info.NV))
	}
	r.SetPhase("enumerate")
}

// Finish records the run's final stop reason and flips the phase to
// "done". Counters remain readable afterwards.
func (r *Recorder) Finish(stopReason string) {
	if r == nil {
		return
	}
	r.finalStop.Store(&stopReason)
	for _, p := range *r.workers.Load() {
		p.SetState(StateDone)
	}
	r.SetPhase("done")
}

// SetPhase publishes a run phase ("load", "order", "enumerate", "done",
// ...); the sampler turns changes into phase events.
func (r *Recorder) SetPhase(phase string) {
	if r == nil {
		return
	}
	r.phase.Store(&phase)
}

// Phase returns the current phase.
func (r *Recorder) Phase() string {
	if r == nil {
		return ""
	}
	return *r.phase.Load()
}

func (r *Recorder) ensureWorkers(n int) {
	if n < 1 {
		n = 1
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	cur := *r.workers.Load()
	if len(cur) >= n {
		return
	}
	grown := make([]*WorkerProbe, n)
	copy(grown, cur)
	for i := len(cur); i < n; i++ {
		grown[i] = &WorkerProbe{}
	}
	r.workers.Store(&grown)
}

// Worker returns worker w's probe, growing the probe set if needed. A nil
// Recorder returns a nil probe, which disables every counter update.
func (r *Recorder) Worker(w int) *WorkerProbe {
	if r == nil || w < 0 {
		return nil
	}
	if ws := *r.workers.Load(); w < len(ws) {
		return ws[w]
	}
	r.ensureWorkers(w + 1)
	return (*r.workers.Load())[w]
}

// WorkerSnap is one worker's row in a Snapshot.
type WorkerSnap struct {
	ID        int    `json:"id"`
	State     string `json:"state"`
	Nodes     int64  `json:"nodes"`
	Bicliques int64  `json:"bicliques"`
	Tasks     int64  `json:"tasks,omitempty"`
	Steals    int64  `json:"steals,omitempty"`
}

// Snapshot is a consistent-enough point-in-time view of a run: totals are
// sums of the counters each worker last published, read without stopping
// the workers, so a row lags its worker by up to one poll quantum and
// fields may come from different publishes, but every counter is monotone
// non-decreasing over the life of a run.
type Snapshot struct {
	RunID     string  `json:"run_id"`
	Algorithm string  `json:"algorithm,omitempty"`
	Dataset   string  `json:"dataset,omitempty"`
	Threads   int     `json:"threads,omitempty"`
	Phase     string  `json:"phase"`
	ElapsedMS float64 `json:"elapsed_ms"`

	Nodes     int64 `json:"nodes"`
	NodesLN   int64 `json:"nodes_ln"`
	NodesBit  int64 `json:"nodes_bit"`
	Bicliques int64 `json:"bicliques"`
	Bitmaps   int64 `json:"bitmaps"`
	// BitPromotions counts LN→BIT subtree promotions; ArenaReuse counts
	// parallel spawns whose detach copy recycled an arena node.
	BitPromotions int64 `json:"bit_promotions,omitempty"`
	ArenaReuse    int64 `json:"arena_reuse,omitempty"`
	Tasks         int64 `json:"tasks"`
	Steals        int64 `json:"steals"`

	// RootDone/RootTotal is the enumeration-tree frontier: how many
	// first-level (root) candidates have been entered out of |V|.
	RootDone  int64 `json:"root_done"`
	RootTotal int64 `json:"root_total"`

	// MemBytes is the run's live engine-tracked memory gauge, with the
	// soft budget it is judged against (absent when unlimited); StopReason
	// the tle stop state ("none" while running). DeadlineMS is the
	// remaining wall budget (absent without a deadline).
	MemBytes       int64   `json:"mem_bytes"`
	MemBudgetBytes int64   `json:"mem_budget_bytes,omitempty"`
	StopReason     string  `json:"stop_reason"`
	DeadlineMS     float64 `json:"deadline_ms,omitempty"`

	// Durable-spool gauges (zero/absent unless the run writes a spool):
	// cumulative bytes/frames/records flushed to shard files and fsyncs
	// issued. Monotone like every other counter here.
	SpoolBytes   int64 `json:"spool_bytes,omitempty"`
	SpoolFrames  int64 `json:"spool_frames,omitempty"`
	SpoolRecords int64 `json:"spool_records,omitempty"`
	SpoolFsyncs  int64 `json:"spool_fsyncs,omitempty"`

	Workers []WorkerSnap `json:"workers"`
}

// Snapshot reads the live counters. Safe to call from any goroutine at any
// point in the run, including after Finish.
func (r *Recorder) Snapshot() Snapshot {
	s := Snapshot{
		RunID:     r.id,
		Algorithm: r.info.Algorithm,
		Dataset:   r.info.Dataset,
		Threads:   r.info.Threads,
		Phase:     r.Phase(),
		ElapsedMS: float64(time.Since(r.started).Microseconds()) / 1e3,
		RootTotal: r.frontier.Load(),
	}
	for i, p := range *r.workers.Load() {
		ln, bit := p.nodesLN.Load(), p.nodesBit.Load()
		w := WorkerSnap{
			ID:        i,
			State:     WorkerState(p.state.Load()).String(),
			Nodes:     ln + bit,
			Bicliques: p.bicliques.Load(),
			Tasks:     p.tasks.Load(),
			Steals:    p.steals.Load(),
		}
		s.Workers = append(s.Workers, w)
		s.NodesLN += ln
		s.NodesBit += bit
		s.Bicliques += w.Bicliques
		s.Bitmaps += p.bitmaps.Load()
		s.BitPromotions += p.promotes.Load()
		s.ArenaReuse += p.arenaReuse.Load()
		s.Tasks += w.Tasks
		s.Steals += w.Steals
		if root := p.root.Load(); root > s.RootDone {
			s.RootDone = root
		}
	}
	s.Nodes = s.NodesLN + s.NodesBit
	if sh := r.shared.Load(); sh != nil {
		s.MemBytes = sh.MemBytes()
		s.StopReason = sh.Reason().String()
	} else {
		s.StopReason = tle.None.String()
	}
	if final := r.finalStop.Load(); final != nil {
		s.StopReason = *final
	}
	s.MemBudgetBytes = r.memBudget.Load()
	if at := r.deadline.Load(); at != 0 {
		s.DeadlineMS = float64(at-time.Now().UnixNano()) / 1e6
	}
	if fn := r.spoolStats.Load(); fn != nil {
		st := (*fn)()
		s.SpoolBytes = st.Bytes
		s.SpoolFrames = st.Frames
		s.SpoolRecords = st.Records
		s.SpoolFsyncs = st.Fsyncs
	}
	return s
}
