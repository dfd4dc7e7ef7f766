package engine

import (
	"context"
	"fmt"
	"maps"
	"slices"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/graph"
)

// recordingFrontier records every Begin and End a run makes.
type recordingFrontier struct {
	mu      sync.Mutex
	first   []int32 // roots in the order of their first Begin
	begins  map[int32]int
	ends    map[int32]int
	notDone map[int32]int // Ends with done false
}

func newRecordingFrontier() *recordingFrontier {
	return &recordingFrontier{begins: map[int32]int{}, ends: map[int32]int{}, notDone: map[int32]int{}}
}

func (f *recordingFrontier) Begin(r int32) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.begins[r] == 0 {
		f.first = append(f.first, r)
	}
	f.begins[r]++
}

func (f *recordingFrontier) End(r int32, done bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.ends[r]++
	if !done {
		f.notDone[r]++
	}
}

// rootCounts is a Sink that counts the bicliques emitted under each root.
type rootCounts struct {
	mu sync.Mutex
	n  map[int32]int64
}

func (s *rootCounts) Emit(_ int, root int32, _, _ []int32) {
	s.mu.Lock()
	s.n[root]++
	s.mu.Unlock()
}

// checkBalanced fails the test unless every root's Begins and Ends
// balance, nothing ends that never began, and the first Begins ascend
// over a prefix of [start, end) — all of it when complete.
func checkBalanced(t *testing.T, fr *recordingFrontier, start, end int32, complete bool) {
	t.Helper()
	for r, n := range fr.begins {
		if fr.ends[r] != n {
			t.Errorf("root %d: %d Begins, %d Ends", r, n, fr.ends[r])
		}
	}
	for r := range fr.ends {
		if fr.begins[r] == 0 {
			t.Errorf("root %d ended without beginning", r)
		}
	}
	for i, r := range fr.first {
		if r != start+int32(i) {
			t.Fatalf("first Begins %v: want start %d, then ascending by one", fr.first, start)
		}
	}
	if last := start + int32(len(fr.first)); last > end || complete && last != end {
		t.Errorf("first Begins covered [%d, %d), want [%d, %d)", start, last, start, end)
	}
}

// TestFrontierContract checks the frontier calls of every rooted engine,
// ParAdaMBE at 4 threads, on random graphs and root ranges. A complete
// run begins each root of the range exactly once, in ascending order,
// matches every Begin with one End, and ends all of its work done. A run
// canceled midway from its handler still balances its Begins and Ends,
// and every root whose work all ended done has emitted every biclique
// the complete run emits under it — the property a checkpoint's
// watermark rests on. Serial runs must end such a root with bicliques
// before the cancel, so the check is not vacuous. ParAdaMBE runs at
// τ = 4, below most roots' degrees, because a root promoted to a bitmap
// is never offered to the scheduler: at the default τ these graphs
// detach no subtree. Every complete ParAdaMBE run must detach one beyond
// its root seeds, so the subtrees' own Begin (before the push) and End
// (when the task returns) are checked too.
func TestFrontierContract(t *testing.T) {
	graphs := []*graph.Bipartite{
		gen.Uniform(61, 80, 40, 600),
		gen.PowerLaw(62, 90, 45, 700, 1.5, 1.7),
	}
	for gi, g := range graphs {
		nv := int32(g.NV())
		for _, rr := range [][2]int32{{0, 0}, {nv / 4, nv - nv/4}} {
			start, end := rr[0], rr[1]
			if end == 0 {
				end = nv
			}
			for _, id := range All() {
				if !id.Rooted() {
					continue
				}
				t.Run(fmt.Sprintf("g%d/[%d,%d)/%s", gi, start, end, id), func(t *testing.T) {
					spec := core.Options{Threads: 4, StartRoot: rr[0], EndRoot: rr[1]}
					var m core.Metrics
					if id == ParAdaMBE {
						spec.Tau, spec.Metrics = 4, &m
					}
					full := &rootCounts{n: map[int32]int64{}}
					fr := newRecordingFrontier()
					spec.Sink, spec.Frontier = full, fr
					res, err := id.Run(g, spec)
					if err != nil || res.StopReason != core.StopNone {
						t.Fatalf("complete run: %v %v", res.StopReason, err)
					}
					if id == ParAdaMBE && m.TasksSpawned <= int64(spec.Threads) {
						t.Errorf("complete run detached no subtree: %d tasks spawned, %d of them root seeds", m.TasksSpawned, spec.Threads)
					}
					checkBalanced(t, fr, start, end, true)
					if len(fr.notDone) > 0 {
						t.Errorf("complete run ended work not done at roots %v", fr.notDone)
					}

					// Cancel at the first biclique of the first root past a
					// third of the run, so a serial run ends whole roots
					// done before it.
					var below, cancelAt int64
					for r := start; r < end && cancelAt == 0; r++ {
						if below > 0 && below >= res.Count/3 && full.n[r] > 0 {
							cancelAt = below + 1
						}
						below += full.n[r]
					}
					if cancelAt == 0 {
						t.Fatalf("no root boundary past a third of the run's %d bicliques", res.Count)
					}
					ctx, cancel := context.WithCancel(context.Background())
					defer cancel()
					var seen atomic.Int64
					part := &rootCounts{n: map[int32]int64{}}
					fr = newRecordingFrontier()
					spec.Sink, spec.Frontier, spec.Context = part, fr, ctx
					// Unordered delivery reaches the handler as each
					// biclique is found, not in batches at a flush.
					spec.UnorderedEmit = true
					spec.OnBiclique = func(L, R []int32) {
						if seen.Add(1) == cancelAt {
							cancel()
						}
					}
					cut, err := id.Run(g, spec)
					if err != nil || cut.StopReason != core.StopCanceled {
						t.Fatalf("canceled run: %v %v (count %d of %d)", cut.StopReason, err, cut.Count, res.Count)
					}
					checkBalanced(t, fr, start, end, false)
					if len(fr.notDone) == 0 {
						t.Error("canceled run ended all of its work done")
					}
					var whole int
					for _, r := range fr.first {
						if fr.notDone[r] > 0 {
							continue
						}
						if part.n[r] != full.n[r] {
							t.Errorf("root %d ended done after emitting %d of its %d bicliques", r, part.n[r], full.n[r])
						}
						if full.n[r] > 0 {
							whole++
						}
					}
					if whole == 0 && !id.Parallel() {
						t.Errorf("no root with bicliques ended done before the cancel (roots ended not done: %v)", slices.Sorted(maps.Keys(fr.notDone)))
					}
				})
			}
		}
	}
}
