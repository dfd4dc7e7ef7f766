package sched

import (
	"sync"
	"sync/atomic"
	"testing"
)

// drain runs a worker loop until the pool drains, applying fn to each task.
func drain(p *Pool[int], w int, fn func(int)) {
	for {
		t, ok := p.Next(w)
		if !ok {
			return
		}
		fn(t)
		p.TaskDone()
	}
}

func TestAllTasksRunExactlyOnce(t *testing.T) {
	const workers, tasks = 4, 1000
	p := NewPool[int](workers, SeedCapacity(tasks, workers, 8))
	seed := make([]int, tasks)
	for i := range seed {
		seed[i] = i
	}
	p.Seed(seed...)

	var seen [tasks]atomic.Int32
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			drain(p, w, func(task int) { seen[task].Add(1) })
		}(w)
	}
	wg.Wait()
	for i := range seen {
		if n := seen[i].Load(); n != 1 {
			t.Fatalf("task %d ran %d times", i, n)
		}
	}
	if c := p.Counters(); c.Spawned != tasks {
		t.Fatalf("Spawned = %d, want %d", c.Spawned, tasks)
	}
}

// TestStealPathDeterministic is the steal-path guarantee: every seed lands
// in worker 0's deque, but only worker 1 drains — every task it gets must
// come through stealTop.
func TestStealPathDeterministic(t *testing.T) {
	const tasks = 50
	p := NewPool[int](2, tasks)
	for i := 0; i < tasks; i++ {
		p.Push(0, i)
	}
	ran := 0
	prev := -1
	drain(p, 1, func(task int) {
		ran++
		// Steals take the top (oldest-first), so seed order is preserved.
		if task <= prev {
			t.Fatalf("steal order not oldest-first: %d after %d", task, prev)
		}
		prev = task
	})
	if ran != tasks {
		t.Fatalf("worker 1 ran %d tasks, want %d", ran, tasks)
	}
	if c := p.Counters(); c.MaxQueueDepth != tasks {
		t.Fatalf("MaxQueueDepth = %d, want %d", c.MaxQueueDepth, tasks)
	}
}

// TestReservation exercises the CanPush contract on a full deque: pushes
// are refused at capacity and guaranteed again after a pop, with the
// occupancy gauge tracking exactly.
func TestReservation(t *testing.T) {
	p := NewPool[int](2, 3)
	for i := 0; i < 3; i++ {
		if !p.CanPush(0) {
			t.Fatalf("CanPush false at occupancy %d, capacity 3", i)
		}
		p.Push(0, i)
	}
	if p.CanPush(0) {
		t.Fatal("CanPush true on a full deque")
	}
	if p.Occupancy(0) != 3 {
		t.Fatalf("Occupancy = %d, want 3", p.Occupancy(0))
	}
	// Owner pops LIFO: the youngest task comes back first.
	task, ok := p.deques[0].popBottom()
	if !ok || task != 2 {
		t.Fatalf("popBottom = %d,%v want 2,true", task, ok)
	}
	p.TaskDone()
	if !p.CanPush(0) {
		t.Fatal("CanPush false after pop freed a slot")
	}
	// Drain the remainder so pending reaches zero.
	for {
		task, ok := p.deques[0].popBottom()
		if !ok {
			break
		}
		_ = task
		p.TaskDone()
	}
	if _, ok := p.Next(0); ok {
		t.Fatal("Next returned a task from a drained pool")
	}
}

func TestEmptyPoolDrainsImmediately(t *testing.T) {
	p := NewPool[int](3, 4)
	var wg sync.WaitGroup
	for w := 0; w < 3; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			if _, ok := p.Next(w); ok {
				t.Errorf("worker %d got a task from an empty pool", w)
			}
		}(w)
	}
	wg.Wait()
}

// TestDynamicSpawning drives the pool the way the enumeration engines do:
// tasks spawn subtasks while running, bounded inline fallback when the
// local deque is full.
func TestDynamicSpawning(t *testing.T) {
	const workers = 4
	p := NewPool[int](workers, 4)
	var executed atomic.Int64
	var inlined atomic.Int64

	// Each task value is a remaining fan-out depth; a task of depth d
	// spawns two tasks of depth d-1 (inline-recursing when its deque is
	// full, exactly like the engine's fallback).
	var runTask func(w, d int)
	runTask = func(w, d int) {
		executed.Add(1)
		if d == 0 {
			return
		}
		for i := 0; i < 2; i++ {
			if p.CanPush(w) {
				p.Push(w, d-1)
			} else {
				inlined.Add(1)
				runTask(w, d-1)
			}
		}
	}

	p.Seed(10)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for {
				d, ok := p.Next(w)
				if !ok {
					return
				}
				runTask(w, d)
				p.TaskDone()
			}
		}(w)
	}
	wg.Wait()

	// A full binary fan-out of depth 10 is 2^11 - 1 nodes, counted whether
	// a node ran as a task or inline.
	if got := executed.Load(); got != 1<<11-1 {
		t.Fatalf("executed %d nodes, want %d", got, 1<<11-1)
	}
	c := p.Counters()
	if c.Spawned+inlined.Load() != 1<<11-1 {
		t.Fatalf("spawned %d + inlined %d ≠ %d nodes", c.Spawned, inlined.Load(), 1<<11-1)
	}
	if c.MaxQueueDepth > 4 {
		t.Fatalf("MaxQueueDepth %d exceeds capacity 4", c.MaxQueueDepth)
	}
}

func TestSeedCapacity(t *testing.T) {
	cases := []struct{ n, workers, min, want int }{
		{0, 4, 8, 8},
		{100, 4, 8, 25},
		{101, 4, 8, 26},
		{3, 4, 8, 8},
		{64, 1, 4, 64},
	}
	for _, c := range cases {
		if got := SeedCapacity(c.n, c.workers, c.min); got != c.want {
			t.Fatalf("SeedCapacity(%d,%d,%d) = %d, want %d", c.n, c.workers, c.min, got, c.want)
		}
	}
}

func TestFreeList(t *testing.T) {
	var f FreeList[int]
	if _, ok := f.Get(); ok {
		t.Fatal("empty list returned a value")
	}
	a, b := new(int), new(int)
	*a, *b = 1, 2
	f.Put(a)
	f.Put(b)
	if f.Len() != 2 {
		t.Fatalf("Len = %d, want 2", f.Len())
	}
	// LIFO: the most recently parked object comes back first (warmest
	// buffers for the next reuse).
	got, ok := f.Get()
	if !ok || got != b {
		t.Fatalf("Get returned %v, want b", got)
	}
	if got, ok := f.Get(); !ok || got != a {
		t.Fatalf("Get returned %v, want a", got)
	}
	if _, ok := f.Get(); ok {
		t.Fatal("drained list returned a value")
	}
	hits, misses := f.Stats()
	if hits != 2 || misses != 2 {
		t.Fatalf("Stats = %d/%d, want 2 hits, 2 misses", hits, misses)
	}
}
