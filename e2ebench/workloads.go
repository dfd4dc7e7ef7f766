package main

import (
	"bytes"
	"time"

	mbe "repro"
)

// workload is one benchmark workload. Each run generates graphs input
// graphs from sub-seeds of the workload seed and rotates its ops across
// them, so one unusually cheap or costly graph does not decide a run.
type workload struct {
	name   string
	why    string
	graphs int
	gen    func(seed int64, tiny bool) *mbe.Graph
	run    func(r *runner) error
}

var workloads = []workload{
	{
		name:   onPar2,
		why:    "in-process ParAdaMBE at 2 threads on an IMDB-like affiliation graph: the LN path and the work-stealing pool do the work",
		graphs: 4,
		gen:    imLike,
		run:    runMbe,
	},
	{
		name:   onJobs,
		why:    "two closed-loop clients of the daemon on a YouTube-like graph, 25% result-cache hits: spool, HTTP and NDJSON dominate",
		graphs: 2,
		gen:    ygLike,
		run:    runMbed,
	},
}

// The graphs use the registry's parameters for IM, YG and WC
// (internal/datasets) with the workload's sub-seed in place of the
// registry seed; tiny shrinks them for the smoke test. The WC-like graphs
// feed the coordinator runs of a traced run (see distLayer).

func imLike(seed int64, tiny bool) *mbe.Graph {
	cfg := mbe.AffiliationConfig{NU: 48000, NV: 16000, Communities: 7000, MeanU: 11, MeanV: 4, Density: 0.9, NoiseEdges: 14000}
	if tiny {
		cfg = mbe.AffiliationConfig{NU: 600, NV: 200, Communities: 90, MeanU: 6, MeanV: 3, Density: 0.9, NoiseEdges: 200}
	}
	return mbe.GenerateAffiliation(seed, cfg).Orient()
}

func ygLike(seed int64, tiny bool) *mbe.Graph {
	cfg := mbe.AffiliationConfig{NU: 16000, NV: 5000, Communities: 2600, MeanU: 12, MeanV: 4, Density: 0.85, NoiseEdges: 9000}
	if tiny {
		cfg = mbe.AffiliationConfig{NU: 500, NV: 160, Communities: 80, MeanU: 6, MeanV: 3, Density: 0.85, NoiseEdges: 150}
	}
	return mbe.GenerateAffiliation(seed, cfg).Orient()
}

func wcLike(seed int64, tiny bool) *mbe.Graph {
	if tiny {
		return mbe.GeneratePowerLaw(seed, 600, 120, 2000, 1.55, 1.5).Orient()
	}
	return mbe.GeneratePowerLaw(seed, 30000, 3600, 130000, 1.55, 1.5).Orient()
}

// sampler polls a Recorder while a run is in flight: the worker-state
// shares and the peak engine-tracked memory come from its samples.
type sampler struct {
	rec  *mbe.Recorder
	stop chan struct{}
	done chan struct{}

	// Written by the polling goroutine, read after done is closed.
	busy, idle, total int64
	memPeak           int64
}

// startSampler polls rec every period until stopped.
func startSampler(rec *mbe.Recorder, period time.Duration) *sampler {
	s := &sampler{rec: rec, stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(s.done)
		t := time.NewTicker(period)
		defer t.Stop()
		for {
			select {
			case <-s.stop:
				return
			case <-t.C:
				s.poll()
			}
		}
	}()
	return s
}

func (s *sampler) poll() {
	snap := s.rec.Snapshot()
	if snap.Phase != "enumerate" {
		return
	}
	s.memPeak = max(s.memPeak, snap.MemBytes)
	for _, w := range snap.Workers {
		s.total++
		switch w.State {
		case "busy":
			s.busy++
		case "idle", "park":
			s.idle++
		}
	}
}

// finish stops the sampler and waits for it.
func (s *sampler) finish() {
	close(s.stop)
	<-s.done
}

// parseTimes times mbe.ReadKonect over every input a few times and
// records the median as graph.parse_ms.
func (r *runner) parseTimes() error {
	for i := 0; i < 3; i++ {
		for _, in := range r.inputs {
			t0 := time.Now()
			if _, err := mbe.ReadKonect(bytes.NewReader(in.konect)); err != nil {
				return err
			}
			r.sample("graph.parse_ms", msSince(t0))
		}
	}
	return nil
}

func msSince(t time.Time) float64 { return float64(time.Since(t).Nanoseconds()) / 1e6 }

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// deadlineLoop runs the measured phase: warm-up ops first, then ops
// until the run length is spent. body gets the op's index and whether it
// is a warm-up op. It returns the wall time of the ops after warm-up.
func deadlineLoop(r *runner, warm int, body func(i int, warm bool) error) (time.Duration, error) {
	for i := 0; i < warm; i++ {
		if err := body(i, true); err != nil {
			return 0, err
		}
	}
	start := time.Now()
	for i := warm; time.Since(start) < r.cfg.seconds; i++ {
		if err := body(i, false); err != nil {
			return 0, err
		}
	}
	return time.Since(start), nil
}
