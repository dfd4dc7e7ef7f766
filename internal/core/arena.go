package core

import "repro/internal/sched"

// detachedNode is a heap-owned enumeration-tree node handed between
// ParAdaMBE workers. Its visible slices alias only the node's own retained
// backing buffers (flat/hdrBuf), never the spawning engine's slab.
type detachedNode struct {
	L, R     []int32
	candIDs  []int32
	candNbrs [][]int32
	exclIDs  []int32
	exclNbrs [][]int32
	depth    int
	// owner is the worker that queued the node; any other worker that
	// runs it counts a steal.
	owner int
	// root tags the node with the root V vertex (engine order) of the
	// subtree it belongs to; it rides along so spooled emissions and the
	// checkpoint frontier can attribute the task's output to its root.
	root int32
	// mem is the footprint charged to the run's memory gauge at spawn,
	// released when the task completes (or is discarded during a drain).
	mem int64
	// isRoot marks a root task (one is seeded per worker): the receiving
	// worker runs the root loop over the run's cursor instead of
	// searchLN.
	isRoot bool

	// Retained backing storage, reused across arena recycles: flat holds
	// every int32 payload (L, R, candIDs, exclIDs, then all neighborhood
	// lists back to back), hdrBuf the candNbrs+exclNbrs slice headers.
	flat   []int32
	hdrBuf [][]int32
}

// memBytes approximates the node's heap footprint for the run's memory
// gauge: int32 payloads plus slice headers and the struct itself. The
// charge is taken when the node is queued and released when its task
// completes, so the gauge tracks the live queued footprint (up to
// threads×capacity nodes) rather than cumulative spawn traffic.
func (n *detachedNode) memBytes() int64 {
	ints := len(n.L) + len(n.R) + len(n.candIDs) + len(n.exclIDs)
	for _, nb := range n.candNbrs {
		ints += len(nb)
	}
	for _, nb := range n.exclNbrs {
		ints += len(nb)
	}
	headers := len(n.candNbrs) + len(n.exclNbrs)
	return int64(ints)*4 + int64(headers)*24 + 96
}

// nodeArena is one worker's allocator for detached spawn state. The spawn
// deep-copy is ParAdaMBE's dominant allocation: before the arena, every
// detachNode call allocated seven objects (four id slices, two header
// slices, one flattened neighborhood buffer) that died as soon as the task
// ran. The arena recycles whole nodes through the sched task lifecycle
// instead — detach Gets a finished node off the worker's FreeList and
// copies into its retained buffers; recycle Puts the node back once runTask
// (and every completion defer: frontier report, gauge release) has
// finished with it. Steady state spawns allocate nothing.
//
// Owned by a single worker goroutine; never shared. A worker parks at most
// parallelQueueCap shells — the most of its own nodes it can ever have
// queued — and leaves the rest to the GC: a thief runs far more tasks than
// it spawns, and an uncapped list would keep every node it ever ran. The
// parked shells' retained buffers are not charged to the run's memory
// gauge; the cap is what bounds them.
type nodeArena struct {
	free        sched.FreeList[detachedNode]
	bytesReused int64
}

// detach deep-copies node state out of the spawning engine's slab into an
// arena-owned node so another worker can own it. reused reports whether the
// node shell came off the free list (an arena hit).
func (a *nodeArena) detach(L, R, candIDs []int32, candNbrs [][]int32, exclIDs []int32, exclNbrs [][]int32) (n *detachedNode, reused bool) {
	n, reused = a.free.Get()
	if !reused {
		n = &detachedNode{}
	}

	ints := len(L) + len(R) + len(candIDs) + len(exclIDs)
	for _, nb := range candNbrs {
		ints += len(nb)
	}
	for _, nb := range exclNbrs {
		ints += len(nb)
	}
	if cap(n.flat) < ints {
		n.flat = make([]int32, ints)
	} else {
		n.flat = n.flat[:ints]
		if reused {
			a.bytesReused += int64(ints) * 4
		}
	}
	hdrs := len(candNbrs) + len(exclNbrs)
	if cap(n.hdrBuf) < hdrs {
		n.hdrBuf = make([][]int32, hdrs)
	} else {
		n.hdrBuf = n.hdrBuf[:hdrs]
	}

	// Carve the flat buffer in deterministic order. Full-capacity slices
	// are fine: consumers only read the lengths set here.
	buf := n.flat[:0]
	carve := func(src []int32) []int32 {
		start := len(buf)
		buf = append(buf, src...)
		return buf[start:len(buf):len(buf)]
	}
	n.L = carve(L)
	n.R = carve(R)
	n.candIDs = carve(candIDs)
	n.exclIDs = carve(exclIDs)
	n.candNbrs = n.hdrBuf[:len(candNbrs):len(candNbrs)]
	for i, nb := range candNbrs {
		n.candNbrs[i] = carve(nb)
	}
	n.exclNbrs = n.hdrBuf[len(candNbrs):hdrs:hdrs]
	for i, nb := range exclNbrs {
		n.exclNbrs[i] = carve(nb)
	}
	n.depth = 0
	n.root = 0
	n.mem = 0
	n.isRoot = false
	return n, reused
}

// recycle parks a finished node for reuse, up to parallelQueueCap parked
// nodes. Must only be called after every reference from the task's
// execution (runTask and its defers) is dead.
func (a *nodeArena) recycle(n *detachedNode) {
	if a.free.Len() < parallelQueueCap {
		a.free.Put(n)
	}
}

// stats folds the arena's counters into a worker's metrics at merge time.
func (a *nodeArena) stats(m *Metrics) {
	hits, misses := a.free.Stats()
	m.ArenaSpawnHits += hits
	m.ArenaSpawnMisses += misses
	m.ArenaBytesReused += a.bytesReused
}
