package main

import (
	"bytes"
	"fmt"
	"time"

	mbe "repro"
)

// mbeSetups is how many times the mbe set-up is repeated per run.
const mbeSetups = 8

// runMbe drives mbe-affil-par2: one closed-loop caller of mbe.Enumerate
// with ParAdaMBE, 2 threads, ASC ordering and serialized emission. An op
// is one Enumerate call; the client digests every biclique it is handed.
func runMbe(r *runner) error {
	// Set-up: parse one input's KONECT bytes, rotating over the inputs;
	// the median of the repeats is reported.
	for i := 0; i < mbeSetups; i++ {
		traced := r.traced(i)
		root := openSpan{}
		if traced {
			root = r.tr.root("setup")
		}
		in := &r.inputs[i%len(r.inputs)]
		t0 := time.Now()
		s := root.child("graph.parse")
		g, err := mbe.ReadKonect(bytes.NewReader(in.konect))
		s.end()
		if err != nil {
			return fmt.Errorf("set-up: %w", err)
		}
		r.addSetup(time.Since(t0), traced)
		root.end()
		in.g = g
	}

	wall, err := deadlineLoop(r, 2, func(i int, warm bool) error {
		r.addOp(r.mbeOp(&r.inputs[i%len(r.inputs)], r.traced(i), warm))
		return nil
	})
	if err != nil {
		return err
	}
	r.wall = wall
	if r.tr == nil {
		return nil
	}

	// Speed-up over serial AdaMBE, from interleaved pairs.
	var serial, par []float64
	for i := 0; i < 4; i++ {
		in := &r.inputs[i%len(r.inputs)]
		for _, alg := range []mbe.Algorithm{mbe.AdaMBE, mbe.ParAdaMBE} {
			t0 := time.Now()
			res, err := mbe.Enumerate(in.g, mbe.Options{Algorithm: alg, Threads: 2})
			if err != nil || res.Count != in.ref.Count {
				return fmt.Errorf("speed-up run %s: count %d, want %d (%v)", alg, res.Count, in.ref.Count, err)
			}
			if alg == mbe.AdaMBE {
				serial = append(serial, msSince(t0))
			} else {
				par = append(par, msSince(t0))
			}
		}
	}
	r.setLayer("sched.speedup_vs_serial", ratio(median(serial), median(par)))

	// A parallel run does not split its time at the τ boundary (its
	// LargeNodeTime stays 0), so the BIT time share comes from serial runs.
	for _, in := range r.inputs[:min(2, len(r.inputs))] {
		var met mbe.Metrics
		if _, err := mbe.Enumerate(in.g, mbe.Options{Algorithm: mbe.AdaMBE, Metrics: &met}); err != nil {
			return err
		}
		r.sample("core.bit_time_share", bitTimeShare(&met))
	}
	if err := r.parseTimes(); err != nil {
		return err
	}
	return r.distLayer()
}

// mbeOp runs one Enumerate call and checks its digest. A traced op also
// collects the engine's counters and samples a Recorder.
func (r *runner) mbeOp(in *input, traced, warm bool) opRec {
	n := r.nextOp()
	var d mbe.Digest
	opts := mbe.Options{
		Algorithm: mbe.ParAdaMBE, Threads: 2, Ordering: mbe.OrderAscendingDegree,
		OnBiclique: d.Observe,
	}
	var met mbe.Metrics
	var smp *sampler
	root := openSpan{}
	if traced {
		opts.Metrics = &met
		opts.Obs = mbe.NewRecorder(mbe.RunInfo{
			Algorithm: "ParAdaMBE", Threads: 2, NU: in.g.NU(), NV: in.g.NV(), Edges: in.g.NumEdges(),
		})
		smp = startSampler(opts.Obs, 5*time.Millisecond)
		root = r.tr.root("op")
	}
	t0 := time.Now()
	s := root.child("core.enumerate")
	res, err := mbe.Enumerate(in.g, opts)
	enum := time.Since(t0)
	s.end()
	v := root.child("client.verify")
	ok := err == nil && res.StopReason == mbe.StopNone && r.check(n, d, in.ref)
	v.end()
	lat := time.Since(t0)
	root.end()
	if smp != nil {
		smp.finish()
		if !warm {
			r.recordCore(&met, smp, enum, true)
		}
	}
	if !ok {
		r.logf("op %d: Enumerate: err=%v stop=%v count=%d, reference count %d", n, err, res.StopReason, d.Count, in.ref.Count)
	}
	return opRec{warm: warm, traced: traced, failed: !ok, lat: lat, bicliques: d.Count}
}

// bitTimeShare is the share of a serial run's time spent in subtrees
// rooted at nodes with |L| <= τ (SmallNodeTime, as in the paper's Fig. 10d).
func bitTimeShare(met *mbe.Metrics) float64 {
	return ratio(float64(met.SmallNodeTime), float64(met.SmallNodeTime+met.LargeNodeTime))
}

// recordCore records one run's core observations, and for a parallel run
// its sched observations.
func (r *runner) recordCore(met *mbe.Metrics, smp *sampler, enum time.Duration, parallel bool) {
	r.sample("core.enumerate_ms", ms(enum))
	r.sample("core.nodes", float64(met.NodesGenerated))
	r.sample("core.maximal_ratio", ratio(float64(met.NodesMaximal), float64(met.NodesGenerated)))
	r.sample("core.set_intersections", float64(met.SetIntersections))
	r.sample("core.bitmaps", float64(met.BitmapsCreated))
	r.sample("core.mem_peak_mb", float64(smp.memPeak)/(1<<20))
	if !parallel {
		r.sample("core.bit_time_share", bitTimeShare(met))
		return
	}
	r.sample("sched.tasks_spawned", float64(met.TasksSpawned))
	r.sample("sched.steal_ratio", ratio(float64(met.TasksStolen), float64(met.TasksSpawned)))
	r.sample("sched.inline_ratio", ratio(float64(met.TasksInlined), float64(met.TasksSpawned+met.TasksInlined)))
	r.sample("sched.arena_hit_ratio", ratio(float64(met.ArenaSpawnHits), float64(met.ArenaSpawnHits+met.ArenaSpawnMisses)))
	r.sample("sched.busy_share", ratio(float64(smp.busy), float64(smp.total)))
	r.sample("sched.idle_share", ratio(float64(smp.idle), float64(smp.total)))
}
