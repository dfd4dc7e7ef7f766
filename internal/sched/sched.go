// Package sched provides the work-stealing task pool shared by the
// parallel enumeration engines (ParAdaMBE in internal/core, the ParMBE
// competitor in internal/baselines).
//
// The design follows the structure the paper gets from TBB's task
// scheduler: one bounded deque per worker. The owning worker pushes and
// pops at the bottom (LIFO — the freshest subtree, whose CG data is still
// cache-hot), while idle workers steal from the top (FIFO — the oldest,
// typically largest detached subtree, which amortizes the steal best).
// Each deque is a mutexed ring; with one push/pop per detached subtree the
// lock is far off the enumeration's critical path, and benchmarking showed
// it indistinguishable from a Chase-Lev deque at this task granularity.
//
// The bounded capacity plus the owner-only-push discipline give the
// reservation property the engines rely on: only the owner appends to its
// deque, so once CanPush observes a free slot, that slot cannot be taken
// by anyone else — occupancy only shrinks from the owner's point of view.
// Callers therefore check CanPush first, pay the expensive task
// materialization (the detach deep-copy) only on a guaranteed slot, and
// then Push, which never fails.
package sched

import (
	"sync"
	"sync/atomic"
)

// WorkerState classifies what a pool worker is doing, as reported to an
// Observer. Transitions happen at task granularity (acquire, park, drain),
// never per enumeration node.
type WorkerState int32

const (
	// StateBusy: the worker holds a task returned by Next.
	StateBusy WorkerState = iota
	// StateStealing: the worker is sweeping deques looking for work.
	StateStealing
	// StateParked: the worker is blocked waiting for a push or drain.
	StateParked
	// StateDone: Next returned ok=false; the pool drained for this worker.
	StateDone
)

// Observer receives scheduler lifecycle callbacks. Implementations must be
// fast and non-blocking (think: one atomic store). A nil observer costs one
// predictable branch per transition.
type Observer interface {
	// WorkerState reports worker w entering state s.
	WorkerState(w int, s WorkerState)
}

// Counters is a snapshot of the pool's scheduling statistics. Steals are
// not among them: a worker knows a task it did not queue when it runs it,
// and counts the steal in its own counters.
type Counters struct {
	// Spawned counts every task pushed into the pool (seeds included).
	Spawned int64
	// MaxQueueDepth is the highest single-deque occupancy observed.
	MaxQueueDepth int64
}

// deque is one worker's bounded ring. head is the steal end (oldest task);
// the owner pushes and pops at head+n (youngest). occ mirrors n for
// lock-free occupancy reads by the adaptive spawn cutoff.
type deque[T any] struct {
	mu   sync.Mutex
	buf  []T
	head int
	occ  atomic.Int32
	// Pad deques apart so one worker's push/pop traffic does not false-share
	// a cache line with its neighbor's.
	_ [64]byte
}

// Pool is a fixed-width work-stealing scheduler. Workers are identified by
// index [0, Workers()); worker w may call Next/CanPush/Push only with its
// own index. A task is pending from Push until the matching TaskDone; the
// pool drains (Next returns ok=false everywhere) once pending reaches zero.
type Pool[T any] struct {
	deques  []deque[T]
	pending atomic.Int64
	idle    atomic.Int32

	mu   sync.Mutex
	cond *sync.Cond

	spawned  atomic.Int64
	maxDepth atomic.Int64

	obs Observer
}

// SetObserver attaches o to the pool's lifecycle callbacks. Must be called
// before the workers start; nil (the default) disables observation.
func (p *Pool[T]) SetObserver(o Observer) { p.obs = o }

// NewPool builds a pool with one capacity-slot ring per worker.
func NewPool[T any](workers, capacity int) *Pool[T] {
	if workers < 1 {
		workers = 1
	}
	if capacity < 1 {
		capacity = 1
	}
	p := &Pool[T]{deques: make([]deque[T], workers)}
	for i := range p.deques {
		p.deques[i].buf = make([]T, capacity)
	}
	p.cond = sync.NewCond(&p.mu)
	return p
}

// Workers returns the pool width.
func (p *Pool[T]) Workers() int { return len(p.deques) }

// Capacity returns the per-worker deque capacity.
func (p *Pool[T]) Capacity() int { return len(p.deques[0].buf) }

// Occupancy returns how many tasks sit in worker w's deque right now.
func (p *Pool[T]) Occupancy(w int) int { return int(p.deques[w].occ.Load()) }

// IdleWorkers returns how many workers are currently parked waiting for
// work — the starvation signal the adaptive spawn cutoff feeds on.
func (p *Pool[T]) IdleWorkers() int { return int(p.idle.Load()) }

// QueuedTasks returns the total number of tasks sitting in deques right
// now (excluding running tasks). Together with IdleWorkers it tells a
// producer whether parked workers actually lack steal targets, or are
// merely waiting their turn on an oversubscribed machine.
func (p *Pool[T]) QueuedTasks() int {
	n := 0
	for i := range p.deques {
		n += int(p.deques[i].occ.Load())
	}
	return n
}

// CanPush reports whether worker w's next Push is guaranteed to succeed.
// Because only w itself appends to its deque, a true result is a
// reservation: the slot cannot disappear before the Push, however long the
// caller spends materializing the task.
func (p *Pool[T]) CanPush(w int) bool {
	return int(p.deques[w].occ.Load()) < len(p.deques[w].buf)
}

// Push appends a task at the bottom of worker w's deque. It must only be
// called by worker w after a true CanPush (it panics on a full deque —
// that is a scheduler bug, not load). Safe against concurrent steals.
func (p *Pool[T]) Push(w int, t T) {
	d := &p.deques[w]
	// The task must be pending before it becomes visible: a thief could
	// otherwise steal, run and TaskDone it first, driving pending to zero
	// and terminating the pool while this task still exists.
	p.pending.Add(1)
	d.mu.Lock()
	n := int(d.occ.Load())
	if n == len(d.buf) {
		d.mu.Unlock()
		panic("sched: Push without reservation on a full deque")
	}
	d.buf[(d.head+n)%len(d.buf)] = t
	d.occ.Store(int32(n + 1))
	d.mu.Unlock()

	p.spawned.Add(1)
	depth := int64(n + 1)
	for {
		cur := p.maxDepth.Load()
		if depth <= cur || p.maxDepth.CompareAndSwap(cur, depth) {
			break
		}
	}
	if p.idle.Load() > 0 {
		p.mu.Lock()
		p.cond.Signal()
		p.mu.Unlock()
	}
}

// Seed distributes tasks round-robin across the deques before the workers
// start. The per-worker capacity must accommodate them (callers size the
// pool with SeedCapacity).
func (p *Pool[T]) Seed(tasks ...T) {
	for i, t := range tasks {
		p.Push(i%len(p.deques), t)
	}
}

// SeedCapacity returns the per-worker capacity needed to Seed n tasks
// round-robin across workers deques, at least min.
func SeedCapacity(n, workers, min int) int {
	need := (n + workers - 1) / workers
	if need < min {
		return min
	}
	return need
}

// popBottom takes the youngest task of worker w's own deque.
func (d *deque[T]) popBottom() (T, bool) {
	var zero T
	d.mu.Lock()
	n := int(d.occ.Load())
	if n == 0 {
		d.mu.Unlock()
		return zero, false
	}
	n--
	i := (d.head + n) % len(d.buf)
	t := d.buf[i]
	d.buf[i] = zero
	d.occ.Store(int32(n))
	d.mu.Unlock()
	return t, true
}

// stealTop takes the oldest task of a victim's deque.
func (d *deque[T]) stealTop() (T, bool) {
	var zero T
	d.mu.Lock()
	n := int(d.occ.Load())
	if n == 0 {
		d.mu.Unlock()
		return zero, false
	}
	t := d.buf[d.head]
	d.buf[d.head] = zero
	d.head = (d.head + 1) % len(d.buf)
	d.occ.Store(int32(n - 1))
	d.mu.Unlock()
	return t, true
}

// take attempts one full acquisition sweep for worker w: own deque bottom
// first, then every sibling's top in round-robin order.
func (p *Pool[T]) take(w int) (T, bool) {
	if t, ok := p.deques[w].popBottom(); ok {
		return t, true
	}
	for off := 1; off < len(p.deques); off++ {
		v := (w + off) % len(p.deques)
		if p.deques[v].occ.Load() == 0 {
			continue
		}
		if t, ok := p.deques[v].stealTop(); ok {
			return t, true
		}
	}
	var zero T
	return zero, false
}

// Next blocks until worker w acquires a task (ok=true) or every pending
// task has completed (ok=false, the pool is drained). Each ok=true result
// must be balanced by one TaskDone call after the task finishes.
func (p *Pool[T]) Next(w int) (T, bool) {
	var zero T
	if p.obs != nil {
		p.obs.WorkerState(w, StateStealing)
	}
	for {
		if t, ok := p.take(w); ok {
			if p.obs != nil {
				p.obs.WorkerState(w, StateBusy)
			}
			return t, true
		}
		if p.pending.Load() == 0 {
			if p.obs != nil {
				p.obs.WorkerState(w, StateDone)
			}
			return zero, false
		}
		p.mu.Lock()
		p.idle.Add(1)
		// Double-check after advertising idleness: a push that raced with
		// the failed sweep either landed before it (found now) or after,
		// in which case the pusher observes idle > 0 — our increment
		// happened before our sweep's deque-lock round trips — and will
		// take p.mu to signal, which it cannot do until we Wait.
		if t, ok := p.take(w); ok {
			p.idle.Add(-1)
			p.mu.Unlock()
			if p.obs != nil {
				p.obs.WorkerState(w, StateBusy)
			}
			return t, true
		}
		if p.pending.Load() == 0 {
			p.idle.Add(-1)
			p.mu.Unlock()
			if p.obs != nil {
				p.obs.WorkerState(w, StateDone)
			}
			return zero, false
		}
		if p.obs != nil {
			p.obs.WorkerState(w, StateParked)
		}
		p.cond.Wait()
		p.idle.Add(-1)
		if p.obs != nil {
			p.obs.WorkerState(w, StateStealing)
		}
		// Hand the wake along if there is visibly more work than us: one
		// Signal per Push can under-wake when a single worker absorbs
		// several wakes in a row.
		if p.idle.Load() > 0 {
			for i := range p.deques {
				if p.deques[i].occ.Load() > 0 {
					p.cond.Signal()
					break
				}
			}
		}
		p.mu.Unlock()
	}
}

// TaskDone marks one task (previously returned by Next) complete. The call
// that drives pending to zero wakes every parked worker so the pool can
// drain.
func (p *Pool[T]) TaskDone() {
	if p.pending.Add(-1) == 0 {
		p.mu.Lock()
		p.cond.Broadcast()
		p.mu.Unlock()
	}
}

// Counters returns a snapshot of the scheduling statistics. Consistent
// only once the pool has drained.
func (p *Pool[T]) Counters() Counters {
	return Counters{
		Spawned:       p.spawned.Load(),
		MaxQueueDepth: p.maxDepth.Load(),
	}
}

// FreeList is a worker-local recycling stack for task objects, closing the
// allocation loop of the task lifecycle: the worker that finishes a task
// Puts its shell (retained buffers and all) and the next spawn Gets it back
// instead of allocating. Ownership follows the task — a node detached by
// worker A and executed by thief B lands on B's free list, which is exactly
// right: B is also the worker about to spawn from the stolen subtree.
//
// Not safe for concurrent use; each worker owns one FreeList, touched only
// from its own goroutine (Get at spawn, Put after TaskDone). The list only
// ever holds nodes that have left the pool, so its length is bounded by the
// worker's share of the peak in-flight task footprint, not by spawn
// traffic.
type FreeList[T any] struct {
	free   []*T
	hits   int64
	misses int64
}

// Get pops a recycled object, or reports a miss (the caller allocates).
func (f *FreeList[T]) Get() (*T, bool) {
	if n := len(f.free); n > 0 {
		t := f.free[n-1]
		f.free[n-1] = nil
		f.free = f.free[:n-1]
		f.hits++
		return t, true
	}
	f.misses++
	return nil, false
}

// Put pushes a finished task object for reuse. The caller must not touch t
// again until a Get returns it.
func (f *FreeList[T]) Put(t *T) {
	if t != nil {
		f.free = append(f.free, t)
	}
}

// Len returns the number of objects currently parked on the list.
func (f *FreeList[T]) Len() int { return len(f.free) }

// Stats returns how many Gets were served from the list vs fell through to
// allocation.
func (f *FreeList[T]) Stats() (hits, misses int64) { return f.hits, f.misses }
