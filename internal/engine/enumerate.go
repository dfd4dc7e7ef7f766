package engine

import (
	"context"
	"fmt"
	"time"

	"repro/internal/ckpt"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/obs"
	"repro/internal/order"
	"repro/internal/spool"
)

// Enumerate runs the engine over g as the caller sees it. A rooted
// engine runs on g relabeled into ordering k (seed feeds order.Random)
// and spec.OnBiclique receives R mapped back to g's ids; the other
// engines run on g as given and ignore k. Root ranges in spec are in the
// ordered id space.
//
// With sp non-nil the run streams every biclique to the durable spool
// session sp describes — a rooted engine only, and never beside a root
// range, since the session owns the frontier. The caller sets the
// location and policy fields (Dir, Resume, Every, Writer.Fsync,
// Meta.Tool, Meta.Compress, OnWarn); Enumerate fills in the run's
// identity in sp.Meta, cancels the run on a spool write error, and
// attaches the spool counters to spec.Obs. A resume of a complete spool
// returns a zero Result.
func (id ID) Enumerate(g *graph.Bipartite, k order.Kind, seed int64, spec core.Options, sp *ckpt.OpenOptions) (core.Result, error) {
	if sp != nil {
		if err := id.CheckRooted(); err != nil {
			return core.Result{}, err
		}
	}
	pg, perm := g, []int32(nil)
	if id.Rooted() {
		var err error
		if pg, perm, err = order.Permute(g, k, seed); err != nil {
			return core.Result{}, err
		}
	}
	spec.OnBiclique = MapBack(spec.OnBiclique, perm, spec.UnorderedEmit)
	if sp == nil {
		return id.Run(pg, spec)
	}

	workers := id.Width(spec.Threads)
	meta := &sp.Meta
	meta.Algorithm = id.String()
	meta.Ordering = k.Tag()
	meta.OrderSeed = seed
	meta.Tau = spec.Tau
	meta.Shards = workers
	meta.NU, meta.NV, meta.Edges = g.NU(), g.NV(), g.NumEdges()
	meta.GraphHash = spool.GraphSignature(g)
	meta.CreatedAt = time.Now().UTC().Format(time.RFC3339)

	// A spool write error cancels the run promptly (StopCanceled):
	// without this, an enumeration with a broken disk would grind on for
	// hours silently dropping output.
	base := spec.Context
	if base == nil {
		base = context.Background()
	}
	runCtx, cancel := context.WithCancel(base)
	defer cancel()
	spec.Context = runCtx
	sp.Writer.OnError = func(error) { cancel() }

	sess, err := ckpt.Open(*sp)
	if err != nil {
		return core.Result{}, err
	}
	if sess.AlreadyComplete() {
		return core.Result{}, nil
	}
	spec.Obs.SetSpoolStats(func() obs.SpoolStats {
		st := sess.Stats()
		return obs.SpoolStats{Bytes: st.Bytes, Frames: st.Frames, Records: st.Records, Fsyncs: st.Fsyncs}
	})
	spec.Sink = sess.Sink(perm, workers)
	spec.Frontier = sess.Frontier()
	spec.StartRoot = sess.StartRoot()

	sess.Start()
	res, err := id.Run(pg, spec)
	complete := err == nil && res.StopReason == core.StopNone
	if ferr := sess.Finish(complete); ferr != nil && err == nil {
		err = fmt.Errorf("spool: %w", ferr)
	}
	return res, err
}

// MapBack wraps h so that it receives R mapped back through perm (ordered
// id -> original id): one closure per delivered biclique. A nil h or perm
// returns h unchanged. concurrent must be set when h is called from
// several workers at once (UnorderedEmit); the scratch buffer is then
// per call instead of shared.
func MapBack(h core.Handler, perm []int32, concurrent bool) core.Handler {
	if h == nil || perm == nil {
		return h
	}
	if concurrent {
		return func(L, R []int32) {
			m := make([]int32, 0, len(R))
			for _, v := range R {
				m = append(m, perm[v])
			}
			h(L, m)
		}
	}
	m := make([]int32, 0, 64)
	return func(L, R []int32) {
		m = m[:0]
		for _, v := range R {
			m = append(m, perm[v])
		}
		h(L, m)
	}
}
