package difftest

import (
	"context"
	"fmt"
	"sync/atomic"

	"repro/internal/ckpt"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/spool"
)

// Spooled-run differential harness: enumerate through the durable spool
// path (internal/spool + internal/ckpt), interrupting and resuming at
// chosen points, and digest what the spool holds at the end. The
// invariant under test is the tentpole guarantee — an interrupted +
// resumed spool is byte-equivalent (as a biclique multiset) to an
// uninterrupted enumeration, with zero dropped and zero duplicated
// bicliques — checked with the same canonical digests the rest of the
// differential harness uses.

// SpoolRunResult reports one RunSpooled lifecycle.
type SpoolRunResult struct {
	Digest   Digest
	Attempts int   // enumeration attempts (interrupts + the final complete run)
	Records  int64 // records in the final spool
	// Detached counts the subtrees a parallel engine detached into its
	// scheduler beyond the root seeds, over every attempt.
	Detached int64
}

// RunSpooled enumerates g under c through a spool at dir, interrupting
// the run (context cancellation, exactly how Ctrl-C lands) after each
// emission count in interrupts, resuming after each, then letting the
// final attempt run to completion. The digest of the final spool
// contents is returned. Every rooted engine is supported: the run goes
// through the engine registry's one spool session.
func RunSpooled(g *graph.Bipartite, c Config, dir string, interrupts []int64) (SpoolRunResult, error) {
	var out SpoolRunResult
	for _, after := range interrupts {
		complete, err := runSpooledOnce(g, c, dir, out.Attempts > 0, after, &out.Detached)
		out.Attempts++
		if err != nil {
			return out, err
		}
		if complete {
			// The run beat the interrupt point; nothing left to resume.
			break
		}
	}
	// Final attempt(s): run to completion. One resume normally suffices;
	// the loop guards against a pathological non-advancing sequence.
	for i := 0; i < 3; i++ {
		complete, err := runSpooledOnce(g, c, dir, out.Attempts > 0, 0, &out.Detached)
		out.Attempts++
		if err != nil {
			return out, err
		}
		if complete {
			d, n, err := SpoolReplayDigest(dir)
			out.Digest, out.Records = d, n
			return out, err
		}
	}
	return out, fmt.Errorf("difftest: %s: spooled run did not complete after %d attempts", c, out.Attempts)
}

// runSpooledOnce is one attempt: open (or resume) the spool session and
// enumerate — cancelling after cancelAfter emissions when > 0, a
// deterministic-enough stand-in for an interrupt that always lands
// mid-enumeration — and close the session with the outcome, adding the
// subtrees a parallel run detached beyond its root seeds to detached.
// Returns whether enumeration ran to completion.
func runSpooledOnce(g *graph.Bipartite, c Config, dir string, resume bool, cancelAfter int64, detached *int64) (bool, error) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	spec := core.Options{Tau: c.Tau, Threads: max(c.Threads, 1), Context: ctx}
	var m core.Metrics
	if spec.Threads > 1 {
		spec.Metrics = &m
	}
	if cancelAfter > 0 {
		var remaining atomic.Int64
		remaining.Store(cancelAfter)
		// Unordered delivery reaches the counter at emission time, where
		// the spool sink sees each biclique, instead of at batch flushes.
		spec.UnorderedEmit = true
		spec.OnBiclique = func(L, R []int32) {
			if remaining.Add(-1) == 0 {
				cancel()
			}
		}
	}
	res, err := c.Engine.Enumerate(g, c.Order, c.Seed, spec, &ckpt.OpenOptions{
		Dir:    dir,
		Meta:   spool.Meta{Tool: "difftest"},
		Resume: resume,
		Every:  -1, // checkpoints only at Finish: deterministic resume points
	})
	*detached += max(m.TasksSpawned-int64(spec.Threads), 0)
	if err != nil {
		return false, fmt.Errorf("difftest: %s: %w", c, err)
	}
	return res.StopReason == core.StopNone, nil
}

// SpoolReplayDigest digests the spool's contents — the replay-side twin
// of Run's in-memory digest, comparable against it directly (the spool
// stores sides sorted in the original id space, and the fingerprint is
// order-invariant within sides). Fails on a dirty shard tail: a digest
// of silently truncated output is not comparable.
func SpoolReplayDigest(dir string) (Digest, int64, error) {
	var d Digest
	var n int64
	states, err := spool.Replay(dir, func(_ int32, L, R []int32) {
		d.Observe(L, R)
		n++
	})
	if err != nil {
		return d, n, err
	}
	return d, n, spool.Clean(states)
}
