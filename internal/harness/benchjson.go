package harness

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"repro/internal/ckpt"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/graph"
	"repro/internal/obs"
	"repro/internal/order"
	"repro/internal/spool"
)

// BenchRun is one measured enumeration in the perf-trajectory file
// (BENCH_parallel.json): wall time plus the scheduler counters that explain
// it. Serial rows (threads = 1) have zero scheduler counters.
type BenchRun struct {
	Dataset       string  `json:"dataset"`
	Algorithm     string  `json:"algorithm"`
	Threads       int     `json:"threads"`
	WallMS        float64 `json:"wall_ms"`
	Count         int64   `json:"count"`
	TasksSpawned  int64   `json:"tasks_spawned"`
	TasksStolen   int64   `json:"tasks_stolen"`
	TasksInlined  int64   `json:"tasks_inlined"`
	MaxQueueDepth int64   `json:"max_queue_depth"`

	// Allocation profile of the run, from runtime.MemStats deltas taken
	// around the enumeration: allocator traffic (mallocs and bytes), not
	// live heap. Normalized per emitted biclique so rows are comparable
	// across datasets; the trajectory diff is what matters — an arena or
	// kernel regression shows up as a jump in allocs_per_biclique long
	// before it is visible in wall time.
	Allocs            int64   `json:"allocs"`
	AllocBytes        int64   `json:"alloc_bytes"`
	AllocsPerBiclique float64 `json:"allocs_per_biclique"`

	// SpeedupVsSerial is serial wall time over this row's wall time; set
	// on parallel rows only.
	SpeedupVsSerial float64 `json:"speedup_vs_serial,omitempty"`

	// Spool throughput fields, set only on the durable-emission row
	// (Spooled = true): what the sharded spool absorbed during the run
	// and the wall-time overhead relative to the same-thread unspooled
	// run above it. The overhead is the number the durability docs quote;
	// it is recorded, not asserted — wall-clock ratios on loaded CI
	// machines are too noisy for a hard gate.
	Spooled           bool    `json:"spooled,omitempty"`
	SpoolBytes        int64   `json:"spool_bytes,omitempty"`
	SpoolFrames       int64   `json:"spool_frames,omitempty"`
	SpoolMBPerSec     float64 `json:"spool_mb_per_sec,omitempty"`
	SpoolFramesPerSec float64 `json:"spool_frames_per_sec,omitempty"`
	SpoolOverheadPct  float64 `json:"spool_overhead_pct,omitempty"`
}

// BenchFile is the schema of BENCH_parallel.json. The file is regenerated
// by `mbebench -json` (see EXPERIMENTS.md); wall times are machine-specific
// but counts are not, which is what makes the file a useful trajectory:
// diffs show scheduling-behavior changes (spawn/steal/inline mix) exactly
// and performance changes approximately. The embedded Provenance says which
// commit, toolchain and machine produced the wall times.
type BenchFile struct {
	Tool string `json:"tool"`
	// Provenance fields are inlined at the top level of the JSON object —
	// including gomaxprocs and num_cpu, which say whether the machine
	// could show parallel scaling at all.
	Provenance
	TLESeconds float64      `json:"tle_seconds"`
	Gate       *ScalingGate `json:"scaling_gate,omitempty"`
	Runs       []BenchRun   `json:"runs"`
}

// ScalingGate is the trajectory's scaling assertion: ParAdaMBE at Threads
// on Dataset must reach MinSpeedup× the serial row. The spec travels in
// BENCH_parallel.json itself — regenerating the file re-reads the
// checked-in threshold, so tightening the gate is a one-line JSON diff.
// Enforcement is conditional on the machine: a recorder with fewer cores
// than Threads physically cannot show the speedup, so the gate records
// the observed ratio with enforced=false instead of failing bogusly
// (Reason says why). CI runners with enough cores enforce it hard.
type ScalingGate struct {
	Dataset    string  `json:"dataset"`
	Threads    int     `json:"threads"`
	MinSpeedup float64 `json:"min_speedup"`
	Observed   float64 `json:"observed_speedup,omitempty"`
	Enforced   bool    `json:"enforced"`
	Reason     string  `json:"reason,omitempty"`
}

// defaultScalingGate seeds the gate spec when outPath has no prior
// trajectory to inherit one from.
var defaultScalingGate = ScalingGate{Dataset: "GH", Threads: 8, MinSpeedup: 3.0}

// loadGateSpec recovers the gate spec (dataset/threads/threshold only)
// from an existing trajectory at path, falling back to the default.
func loadGateSpec(path string) ScalingGate {
	spec := defaultScalingGate
	data, err := os.ReadFile(path)
	if err != nil {
		return spec
	}
	var prior BenchFile
	if json.Unmarshal(data, &prior) != nil || prior.Gate == nil {
		return spec
	}
	g := *prior.Gate
	if g.Dataset == "" || g.Threads <= 0 || g.MinSpeedup <= 0 {
		return spec
	}
	return ScalingGate{Dataset: g.Dataset, Threads: g.Threads, MinSpeedup: g.MinSpeedup}
}

// benchThreadSweep is the ParAdaMBE width sweep recorded per dataset.
var benchThreadSweep = []int{2, 4, 8}

// benchDefaultDatasets are the two smallest registry entries — sized for
// the CI smoke job; override with Config.Datasets for fuller trajectories.
var benchDefaultDatasets = []string{"UL", "UF"}

// BenchParallel measures serial AdaMBE against the ParAdaMBE thread sweep
// on each selected dataset and writes the JSON trajectory to outPath. A
// parallel count differing from the serial reference — or any run ending
// early (TLE, cancellation) — is an error, so the CI smoke job fails on a
// scheduler correctness or budget regression, not just on crashes.
func BenchParallel(cfg Config, outPath string) error {
	// A parallel trajectory measured on one scheduler thread is noise:
	// every ParAdaMBE width collapses to ~1.0x serial and the file looks
	// like a scaling regression. Refuse loudly instead of recording it.
	if runtime.GOMAXPROCS(0) < 2 {
		return fmt.Errorf("harness: refusing to record a parallel trajectory at GOMAXPROCS=%d (NumCPU=%d): "+
			"ParAdaMBE cannot show scaling on one scheduler thread — run on a multi-core machine or raise GOMAXPROCS",
			runtime.GOMAXPROCS(0), runtime.NumCPU())
	}
	specs, err := cfg.selectSpecs(benchDefaultDatasets)
	if err != nil {
		return err
	}
	out := cfg.out()
	gate := loadGateSpec(outPath)
	file := BenchFile{
		Tool:       "mbebench -json",
		Provenance: CollectProvenance(),
		TLESeconds: cfg.tle().Seconds(),
		Gate:       &gate,
		Runs:       []BenchRun{},
	}

	// measure times one engine on g, which is already in ASC order. The
	// serial AdaMBE and BBK rows have zero scheduler counters.
	measure := func(dataset string, g *graph.Bipartite, id engine.ID, threads int) (BenchRun, error) {
		algo := id.String()
		var m core.Metrics
		var rec *obs.Recorder
		if cfg.LiveObs {
			rec = obs.NewRecorder(obs.RunInfo{
				Algorithm: algo, Dataset: dataset, Threads: threads,
				NU: g.NU(), NV: g.NV(), Edges: g.NumEdges(),
			})
			// Stays published until the next run replaces it, so a
			// -debug-addr poller always sees the latest (or final) state;
			// run_id tells pollers when the run rolled over.
			obs.Publish(rec)
		}
		deadline := time.Now().Add(cfg.tle())
		var msBefore, msAfter runtime.MemStats
		runtime.ReadMemStats(&msBefore)
		start := time.Now()
		res, err := id.Run(g, core.Options{
			Threads:  threads,
			Deadline: deadline,
			Context:  cfg.ctx(),
			Metrics:  &m,
			Obs:      rec,
		})
		wall := time.Since(start)
		runtime.ReadMemStats(&msAfter)
		if err != nil {
			return BenchRun{}, fmt.Errorf("harness: %s on %s (t=%d): %w", algo, dataset, threads, err)
		}
		if res.StopReason != core.StopNone {
			return BenchRun{}, fmt.Errorf("harness: %s on %s (t=%d) stopped early (%v); raise -tle for a comparable trajectory",
				algo, dataset, threads, res.StopReason)
		}
		run := BenchRun{
			Dataset:       dataset,
			Algorithm:     algo,
			Threads:       threads,
			WallMS:        float64(wall.Microseconds()) / 1e3,
			Count:         res.Count,
			TasksSpawned:  m.TasksSpawned,
			TasksStolen:   m.TasksStolen,
			TasksInlined:  m.TasksInlined,
			MaxQueueDepth: m.MaxQueueDepth,
			Allocs:        int64(msAfter.Mallocs - msBefore.Mallocs),
			AllocBytes:    int64(msAfter.TotalAlloc - msBefore.TotalAlloc),
		}
		if res.Count > 0 {
			run.AllocsPerBiclique = float64(run.Allocs) / float64(res.Count)
		}
		return run, nil
	}

	// measureSpooled repeats the widest ParAdaMBE run with the durable
	// spool attached (the engine registry's spool session, exactly the
	// `mbe -out` path) and records what the spool absorbed: bytes, frames,
	// MB/s, frames/s, and the wall-time overhead vs the unspooled run.
	measureSpooled := func(dataset string, g *graph.Bipartite, threads int, baseMS float64, wantCount int64) (BenchRun, error) {
		tmp, err := os.MkdirTemp("", "mbebench-spool-")
		if err != nil {
			return BenchRun{}, err
		}
		defer os.RemoveAll(tmp)
		dir := filepath.Join(tmp, "spool")
		start := time.Now()
		res, err := engine.ParAdaMBE.Enumerate(g, order.None, 0, core.Options{
			Threads:  threads,
			Deadline: time.Now().Add(cfg.tle()),
			Context:  cfg.ctx(),
		}, &ckpt.OpenOptions{Dir: dir, Meta: spool.Meta{Tool: "mbebench"}})
		wall := time.Since(start)
		if err != nil {
			return BenchRun{}, fmt.Errorf("harness: spooled %s (t=%d): %w", dataset, threads, err)
		}
		if res.StopReason != core.StopNone {
			return BenchRun{}, fmt.Errorf("harness: spooled %s (t=%d) stopped early (%v); raise -tle for a comparable trajectory",
				dataset, threads, res.StopReason)
		}
		if res.Count != wantCount {
			return BenchRun{}, fmt.Errorf("harness: spooled %s (t=%d) counted %d, serial %d — durable-emission correctness regression",
				dataset, threads, res.Count, wantCount)
		}
		states, err := spool.Verify(dir)
		if err != nil {
			return BenchRun{}, fmt.Errorf("harness: spooled %s (t=%d): %w", dataset, threads, err)
		}
		run := BenchRun{
			Dataset: dataset, Algorithm: AlgoParAdaMBE, Threads: threads,
			WallMS: float64(wall.Microseconds()) / 1e3, Count: res.Count, Spooled: true,
		}
		for _, st := range states {
			run.SpoolBytes += st.ValidBytes
			run.SpoolFrames += st.Frames
		}
		if sec := wall.Seconds(); sec > 0 {
			run.SpoolMBPerSec = float64(run.SpoolBytes) / 1e6 / sec
			run.SpoolFramesPerSec = float64(run.SpoolFrames) / sec
		}
		if baseMS > 0 {
			run.SpoolOverheadPct = (run.WallMS - baseMS) / baseMS * 100
		}
		return run, nil
	}

	for _, spec := range specs {
		if err := cfg.ctx().Err(); err != nil {
			return err
		}
		g := order.Apply(spec.Build(), order.DegreeAscending, 0)

		serial, err := measure(spec.Acronym, g, engine.AdaMBE, 1)
		if err != nil {
			return err
		}
		file.Runs = append(file.Runs, serial)
		fmt.Fprintf(out, "%-6s %-10s t=%d  %8.1fms  count=%d\n",
			spec.Acronym, serial.Algorithm, serial.Threads, serial.WallMS, serial.Count)

		bbk, err := measure(spec.Acronym, g, engine.BBK, 1)
		if err != nil {
			return err
		}
		if bbk.Count != serial.Count {
			return fmt.Errorf("harness: BBK on %s counted %d, serial AdaMBE %d — enumeration correctness regression",
				spec.Acronym, bbk.Count, serial.Count)
		}
		file.Runs = append(file.Runs, bbk)
		fmt.Fprintf(out, "%-6s %-10s t=%d  %8.1fms  count=%d  allocs/bc=%.1f\n",
			spec.Acronym, bbk.Algorithm, bbk.Threads, bbk.WallMS, bbk.Count, bbk.AllocsPerBiclique)

		widestMS := serial.WallMS
		for _, t := range benchThreadSweep {
			run, err := measure(spec.Acronym, g, engine.ParAdaMBE, t)
			if err != nil {
				return err
			}
			if run.Count != serial.Count {
				return fmt.Errorf("harness: ParAdaMBE on %s (t=%d) counted %d, serial %d — scheduler correctness regression",
					spec.Acronym, t, run.Count, serial.Count)
			}
			if serial.WallMS > 0 {
				run.SpeedupVsSerial = serial.WallMS / run.WallMS
			}
			if spec.Acronym == gate.Dataset && t == gate.Threads {
				gate.Observed = run.SpeedupVsSerial
			}
			file.Runs = append(file.Runs, run)
			fmt.Fprintf(out, "%-6s %-10s t=%d  %8.1fms  %5.2fx  count=%d  spawned=%d stolen=%d inlined=%d maxq=%d allocs/bc=%.1f\n",
				spec.Acronym, run.Algorithm, run.Threads, run.WallMS, run.SpeedupVsSerial, run.Count,
				run.TasksSpawned, run.TasksStolen, run.TasksInlined, run.MaxQueueDepth, run.AllocsPerBiclique)
			widestMS = run.WallMS
		}

		spoolThreads := benchThreadSweep[len(benchThreadSweep)-1]
		spooled, err := measureSpooled(spec.Acronym, g, spoolThreads, widestMS, serial.Count)
		if err != nil {
			return err
		}
		file.Runs = append(file.Runs, spooled)
		fmt.Fprintf(out, "%-6s %-10s t=%d  %8.1fms  count=%d  spool=%dB %.1fMB/s %.0fframes/s overhead=%+.1f%%\n",
			spec.Acronym, spooled.Algorithm+"+spool", spooled.Threads, spooled.WallMS, spooled.Count,
			spooled.SpoolBytes, spooled.SpoolMBPerSec, spooled.SpoolFramesPerSec, spooled.SpoolOverheadPct)
	}

	// Gate evaluation. The trajectory is written even when the gate trips,
	// so a failing CI run still uploads the numbers that explain it.
	var gateErr error
	switch {
	case gate.Observed == 0:
		gate.Enforced = false
		gate.Reason = fmt.Sprintf("gate dataset %s (t=%d) not in this run set", gate.Dataset, gate.Threads)
	case runtime.NumCPU() < gate.Threads:
		gate.Enforced = false
		gate.Reason = fmt.Sprintf("num_cpu %d < gate threads %d: machine cannot show the speedup; recorded, not enforced",
			runtime.NumCPU(), gate.Threads)
	default:
		gate.Enforced = true
		if gate.Observed < gate.MinSpeedup {
			gateErr = fmt.Errorf("harness: scaling gate failed: ParAdaMBE on %s (t=%d) reached %.2fx serial, gate requires %.2fx",
				gate.Dataset, gate.Threads, gate.Observed, gate.MinSpeedup)
		}
	}
	if gate.Observed > 0 {
		fmt.Fprintf(out, "scaling gate: %s t=%d observed %.2fx (min %.2fx, enforced=%v)\n",
			gate.Dataset, gate.Threads, gate.Observed, gate.MinSpeedup, gate.Enforced)
	}

	data, err := json.MarshalIndent(&file, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	if err := os.WriteFile(outPath, data, 0o644); err != nil {
		return err
	}
	fmt.Fprintf(out, "wrote %s (%d runs)\n", outPath, len(file.Runs))
	return gateErr
}
