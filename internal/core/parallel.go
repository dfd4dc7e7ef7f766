package core

import (
	"sync"
	"sync/atomic"

	"repro/internal/graph"
	"repro/internal/obs"
	"repro/internal/sched"
	"repro/internal/tle"
)

// poolObserver adapts the scheduler's lifecycle callbacks onto the run's
// live-observability recorder: one atomic store per transition, at task
// granularity.
type poolObserver struct{ rec *obs.Recorder }

func (o poolObserver) WorkerState(w int, s sched.WorkerState) {
	var st obs.WorkerState
	switch s {
	case sched.StateBusy:
		st = obs.StateBusy
	case sched.StateStealing:
		st = obs.StateStealing
	case sched.StateParked:
		st = obs.StateParked
	case sched.StateDone:
		st = obs.StateDone
	default:
		st = obs.StateIdle
	}
	o.rec.Worker(w).SetState(st)
}

// Scheduler sizing. The per-worker deque bound keeps the detached-node
// footprint proportional to the worker count (the queue is backpressure,
// not buffering: a full deque means the producer recurses inline, which is
// always correct). parallelSpawnHighWater and parallelMinSpawnCand are the
// adaptive spawn cutoff's knobs — see shouldSpawn. parallelQueueCap is a
// variable only so the saturation tests can shrink it.
var parallelQueueCap = 64

const (
	// parallelSpawnHighWater: once this many subtrees are queued locally
	// and no worker is starving, further offers recurse inline. Deep
	// backlogs add detach-copy cost without improving balance — thieves
	// only ever need a handful of outstanding subtrees to stay busy.
	parallelSpawnHighWater = 8
	// parallelMinSpawnCand: a subtree whose candidate set is smaller than
	// this is only worth detaching when someone is starving; otherwise the
	// deep-copy overhead exceeds the subtree.
	parallelMinSpawnCand = 4
	// parallelSpawnLowWater: absent starvation, each worker keeps this many
	// worthwhile subtrees queued as steal fodder.
	parallelSpawnLowWater = 2
)

// shouldSpawn is the adaptive spawn cutoff that replaces the fixed
// spawn-depth bound of the first scheduler: the decision is driven by what
// the pool looks like right now — queue occupancy and the size of the
// candidate set about to be detached — instead of where the node happens
// to sit in the enumeration tree. Skewed datasets (the CebWiki hubs the
// paper highlights) concentrate work in a few deep subtrees; a depth
// cutoff stops splitting exactly where those subtrees live, while this one
// keeps splitting any subtree, at any depth, for as long as the split can
// still feed a starving worker.
//
// Starvation means idle workers outnumber the tasks they could steal —
// merely having parked workers does not: on an oversubscribed machine
// (more workers than cores) most workers are parked most of the time, and
// spawning on that signal alone buys no balance while paying a detach
// copy per node. Absent starvation, each worker only keeps a couple of
// worthwhile subtrees queued as steal fodder.
func shouldSpawn(pool *sched.Pool[*detachedNode], w, nCand int) bool {
	if !pool.CanPush(w) {
		return false // deque full: inline recursion is the backpressure path
	}
	occ := pool.Occupancy(w)
	if occ >= parallelSpawnHighWater {
		return false
	}
	if pool.IdleWorkers() > pool.QueuedTasks() {
		return true // genuine starvation: any subtree is steal fodder
	}
	return occ < parallelSpawnLowWater && nCand >= parallelMinSpawnCand
}

// enumerateParallel is ParAdaMBE on a work-stealing scheduler: one bounded
// deque per worker (owner pushes and pops the youngest subtree, idle
// workers steal the oldest), the adaptive spawn cutoff above, and
// reservation-before-copy — sched.Pool.CanPush is a guaranteed
// reservation, so the arena detach deep-copy is only ever paid for a subtree
// that will actually be queued. Every worker starts in the root loop,
// taking first-level roots one at a time from one run-wide cursor, so
// the root level (each root's two-hop wedge walks) is shared too. A root
// promoted to a bitmap (|N(v')| ≤ τ, nearly every root) is searched where
// it was built and never offered: a root task only pops its deque once
// the cursor is exhausted, and a bitmap subtree is never split further.
// Neither spawn decisions (a declined offer recurses inline with
// identical semantics) nor the order roots finish in change the
// enumerated set, so counts and bicliques are bit-identical to the serial
// engine.
//
// Emission: with a handler attached, each worker buffers its bicliques in
// a private emitShard and flushes batches under one shared mutex
// (serialized delivery, the default contract); Options.UnorderedEmit
// bypasses the shard for direct concurrent calls. Handler-less runs only
// count and touch no shared state between task boundaries.
//
// Lifecycle: every task runs under panic recovery (tle.Shared.Recover). A
// panicking task trips the run's shared stop state, so sibling workers
// wind down at their next amortized check; the panicking worker itself
// stays alive to keep draining (and discarding) queued tasks, which
// guarantees the pending count reaches zero and no goroutine leaks. The
// first panic is reported as the run's error; counts and metrics
// accumulated by every worker — including the one that panicked — are
// still merged, so the caller gets monotone partial results.
func enumerateParallel(g *graph.Bipartite, opts Options, shared *tle.Shared) (Result, error) {
	threads := opts.Threads
	pool := sched.NewPool[*detachedNode](threads, parallelQueueCap)
	if opts.Obs != nil {
		pool.SetObserver(poolObserver{rec: opts.Obs})
	}
	// Seed one root task per worker, on that worker's own deque. Each root
	// task runs the root loop over the run-wide cursor, sharing one
	// domination record; once the cursor is exhausted its worker drains
	// subtrees like any other.
	roots := NewRootCursor(&opts, g.NV())
	dom := newRootDom(g.NV(), shared.AddMem)
	seeds := make([]*detachedNode, threads)
	for w := range seeds {
		seeds[w] = &detachedNode{isRoot: true, owner: w}
	}
	pool.Seed(seeds...)

	var workers sync.WaitGroup
	var total atomic.Int64
	var emitMu sync.Mutex // serializes shard flushes across workers
	var metricsMu sync.Mutex

	for w := 0; w < threads; w++ {
		workers.Add(1)
		go func(w int) {
			defer workers.Done()
			workerOpts := opts
			var shard *emitShard
			if opts.OnBiclique != nil && !opts.UnorderedEmit {
				shard = newEmitShard(opts.OnBiclique, &emitMu)
				workerOpts.OnBiclique = shard.emit
			}
			e := newEngine(g, workerOpts, shared, w)
			e.dom = dom
			if shard != nil {
				shard.charge = e.chargeMem
			}
			// Drain this worker's results on every exit path — normal pool
			// drain, early stop, or a panic unwinding past the task-level
			// recovery — through the same publish/flush/reconcile/merge
			// sequence: registered as a defer right here so a cancellation
			// can never skip the merge and lose counted bicliques or
			// gathered metrics. The final publish comes before the
			// reconciliation, which never touches the published counters.
			defer func() {
				e.publish()
				count := e.ctr.Bicliques
				if shard != nil {
					func() {
						defer shared.Recover("ParAdaMBE emit flush")
						shard.flush()
					}()
					// Anything the shard could not deliver is reconciled out
					// of the count: Result.Count only ever counts bicliques
					// the handler actually received.
					count -= shard.undelivered()
				}
				total.Add(count)
				if opts.Metrics != nil {
					metricsMu.Lock()
					e.mergeMetrics(opts.Metrics)
					metricsMu.Unlock()
				}
			}()
			// Offers come from LN roots above τ and from inner LN nodes; a
			// root promoted to a bitmap is never offered (promoteRoot).
			e.spawn = func(L, R, candIDs []int32, candNbrs [][]int32, exclIDs []int32, exclNbrs [][]int32, depth int) bool {
				if !shouldSpawn(pool, w, len(candIDs)) {
					e.metrics.TasksInlined++
					return false
				}
				if e.stop.Fault(SiteSpawn) {
					return false
				}
				// CanPush held above, and only this worker pushes to this
				// deque: the slot is reserved, the copy cannot be wasted
				// and the push cannot fail.
				n, _ := e.arena.detach(L, R, candIDs, candNbrs, exclIDs, exclNbrs)
				n.owner = w
				n.depth = depth
				n.root = e.curRoot
				n.mem = n.memBytes()
				e.stop.AddMem(n.mem)
				// The frontier must learn of the task before any thief can
				// end it, so the task begins ahead of the push.
				if fr := e.frontier; fr != nil {
					fr.Begin(n.root)
				}
				pool.Push(w, n)
				return true
			}

			// runTask executes one task with panic isolation. The pool's
			// TaskDone, the frontier's End and the memory-gauge release run
			// on every exit path — normal, skipped, or panicking — so the
			// pool always drains and the gauge tracks the live
			// detached-node footprint, not cumulative spawn traffic.
			runTask := func(n *detachedNode) {
				e.ctr.Tasks++
				if n.owner != w {
					e.ctr.Steals++
				}
				// Registered first so it runs last, after the panic
				// recovery below has tripped the shared stop state: a
				// panicked or stop-interrupted subtree ends not done
				// (freezing the checkpoint watermark), as the root cursor
				// ends a root, and by the same forced Poll. A root task's
				// roots are ended by the cursor itself.
				if fr := e.frontier; fr != nil && !n.isRoot {
					defer func() { fr.End(n.root, !e.stop.Poll()) }()
				}
				defer obs.TraceRegion("mbe/task").End()
				defer pool.TaskDone()
				defer shared.Recover("ParAdaMBE worker")
				defer func() {
					if n.mem != 0 {
						e.stop.AddMem(-n.mem)
					}
				}()
				// Forced poll at the task boundary: observes sibling trips
				// (drain without work) and bounds deadline/cancel latency
				// to one task.
				if e.stop.Poll() {
					return
				}
				if n.isRoot {
					roots.Run(&e.stop, e.expandRoot)
				} else {
					e.curRoot = n.root
					e.searchLN(n.L, n.R, n.candIDs, n.candNbrs, n.exclIDs, n.exclNbrs, n.depth)
				}
			}

			for {
				n, ok := pool.Next(w)
				if !ok {
					break
				}
				runTask(n)
				// runTask has returned, so every reference the task's defers
				// held (frontier report, gauge release) is dead; searchLN does
				// not retain its argument slices and spawn deep-copies into a
				// fresh node, so the shell and its backing buffers are free to
				// reuse. Ownership follows the task: nodes this worker runs —
				// its own pops and its steals alike — land in its arena. Root
				// task markers recycle harmlessly (empty buffers).
				e.arena.recycle(n)
			}
		}(w)
	}
	workers.Wait()

	if opts.Metrics != nil {
		opts.Metrics.observeNode(g.NU(), g.NV()) // the root node, once per run
		c := pool.Counters()
		opts.Metrics.TasksSpawned += c.Spawned
		if c.MaxQueueDepth > opts.Metrics.MaxQueueDepth {
			opts.Metrics.MaxQueueDepth = c.MaxQueueDepth
		}
	}

	reason, err := shared.Outcome()
	return Result{Count: total.Load(), StopReason: reason}, err
}
