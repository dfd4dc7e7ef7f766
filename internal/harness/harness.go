// Package harness regenerates every table and figure of the paper's
// evaluation (§IV) on the synthetic dataset registry: Table I/II stats,
// Fig. 4-5 motivation measurements, Fig. 8-10 overall and breakdown
// comparisons, and the Fig. 11-14 sensitivity sweeps. Each experiment
// prints a text table mirroring the paper's rows/series and can optionally
// dump CSV for plotting.
package harness

import (
	"context"
	"encoding/csv"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/datasets"
	"repro/internal/engine"
	"repro/internal/graph"
	"repro/internal/order"
)

// Config controls an experiment run.
type Config struct {
	// Quick shrinks dataset selections and budgets for smoke runs.
	Quick bool
	// TLE is the per-run time budget (the paper's 48 h limit, scaled).
	// Zero selects 60 s (10 s when Quick).
	TLE time.Duration
	// Threads is the parallel width; 0 = GOMAXPROCS.
	Threads int
	// Out receives the text tables; nil = os.Stdout.
	Out io.Writer
	// CSVDir, when non-empty, receives one CSV file per experiment.
	CSVDir string
	// Datasets restricts experiments to the named datasets (acronyms).
	// Empty = each experiment's default selection.
	Datasets []string
	// Context, if non-nil, cancels in-flight enumerations (partial counts
	// are reported as TLE-style rows) and makes experiment loops stop
	// between datasets. Used by mbebench to honor SIGINT.
	Context context.Context
	// LiveObs attaches a live observability recorder to each benchmark
	// enumeration and publishes it to the process's /debug endpoint, so a
	// -debug-addr poller can watch bench runs in flight. Off by default:
	// the per-node probe counters are not free, and trajectory numbers
	// should be measured the way production runs are.
	LiveObs bool
}

func (c *Config) ctx() context.Context {
	if c.Context == nil {
		return context.Background()
	}
	return c.Context
}

func (c *Config) out() io.Writer {
	if c.Out == nil {
		return os.Stdout
	}
	return c.Out
}

func (c *Config) tle() time.Duration {
	if c.TLE > 0 {
		return c.TLE
	}
	if c.Quick {
		return 10 * time.Second
	}
	return 60 * time.Second
}

func (c *Config) threads() int {
	if c.Threads > 0 {
		return c.Threads
	}
	return runtime.GOMAXPROCS(0)
}

// selectSpecs resolves the dataset selection: the config override if set,
// otherwise the provided default acronyms.
func (c *Config) selectSpecs(def []string) ([]datasets.Spec, error) {
	names := def
	if len(c.Datasets) > 0 {
		names = c.Datasets
	}
	specs := make([]datasets.Spec, 0, len(names))
	for _, n := range names {
		s, ok := datasets.ByName(n)
		if !ok {
			return nil, fmt.Errorf("harness: unknown dataset %q", n)
		}
		specs = append(specs, s)
	}
	return specs, nil
}

// Runner executes one experiment.
type Runner func(Config) error

// Experiments maps experiment ids (the paper's table/figure numbers) to
// their runners.
var Experiments = map[string]Runner{
	"table1": Table1,
	"fig4":   Fig4,
	"fig5":   Fig5,
	"fig8":   Fig8,
	"fig9":   Fig9,
	"fig10":  Fig10,
	"fig11":  Fig11,
	"fig12":  Fig12,
	"fig13":  Fig13,
	"fig14":  Fig14,
}

// ExperimentNames returns the registered experiment ids, sorted.
func ExperimentNames() []string {
	names := make([]string, 0, len(Experiments))
	for n := range Experiments {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// RunResult is one measured enumeration.
type RunResult struct {
	Algorithm  string
	Dataset    string
	Count      int64
	Elapsed    time.Duration
	TimedOut   bool
	StopReason core.StopReason
	PeakHeap   uint64 // bytes, sampled
}

// AlgoNames used across experiments: engine registry spellings
// (internal/engine), as RunAlgorithm takes them.
const (
	AlgoBaseline  = "Baseline"
	AlgoLN        = "AdaMBE-LN"
	AlgoBIT       = "AdaMBE-BIT"
	AlgoAdaMBE    = "AdaMBE"
	AlgoParAdaMBE = "ParAdaMBE"
	AlgoFMBE      = "FMBE"
	AlgoPMBE      = "PMBE"
	AlgoOOMBEA    = "ooMBEA"
	AlgoParMBE    = "ParMBE"
	AlgoGMBE      = "GMBE-sim"
	AlgoBBK       = "BBK"
)

// SerialAlgos is the Fig. 8a serial lineup; ParallelAlgos the parallel one.
func SerialAlgos() []string   { return []string{AlgoFMBE, AlgoPMBE, AlgoOOMBEA, AlgoAdaMBE} }
func ParallelAlgos() []string { return []string{AlgoParMBE, AlgoGMBE, AlgoParAdaMBE} }

// RunAlgorithm executes one named algorithm on g with the given budget and
// metrics hook (filled by the AdaMBE family and BBK), measuring peak heap.
// The rooted engines run under the ASC ordering (the AdaMBE family's
// default per Algorithm 2); the competitors run with their own papers'
// default configurations (ooMBEA computes its UC order itself). The
// elapsed time includes any ordering the algorithm performs, matching the
// paper's protocol (loading excluded, ordering included).
func RunAlgorithm(g *graph.Bipartite, algo string, cfg Config, metrics *core.Metrics) (RunResult, error) {
	id, err := engine.Parse(algo)
	if err != nil {
		return RunResult{}, fmt.Errorf("harness: %w", err)
	}
	deadline := time.Now().Add(cfg.tle())
	stop, peak := startHeapSampler()
	defer stop()

	start := time.Now()
	res, err := id.Enumerate(g, order.DegreeAscending, 0, core.Options{
		Threads: cfg.threads(), Deadline: deadline, Context: cfg.ctx(), Metrics: metrics,
	}, nil)
	elapsed := time.Since(start)
	if err != nil {
		return RunResult{}, err
	}
	return RunResult{
		Algorithm:  algo,
		Count:      res.Count,
		Elapsed:    elapsed,
		TimedOut:   res.TimedOut,
		StopReason: res.StopReason,
		PeakHeap:   peak(),
	}, nil
}

// startHeapSampler samples runtime heap usage in the background and
// returns a stop function and a peak getter (bytes). It forces a GC first
// so the baseline reflects live data.
func startHeapSampler() (stop func(), peak func() uint64) {
	runtime.GC()
	var max atomic.Uint64
	done := make(chan struct{})
	var wg sync.WaitGroup
	sample := func() {
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		for {
			cur := max.Load()
			if ms.HeapAlloc <= cur || max.CompareAndSwap(cur, ms.HeapAlloc) {
				break
			}
		}
	}
	sample()
	wg.Add(1)
	go func() {
		defer wg.Done()
		tick := time.NewTicker(5 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-done:
				return
			case <-tick.C:
				sample()
			}
		}
	}()
	return func() {
			close(done)
			wg.Wait()
			sample()
		}, func() uint64 {
			return max.Load()
		}
}

// fmtDur renders a duration compactly for tables, with "TLE" annotation
// handled by callers.
func fmtDur(d time.Duration) string {
	switch {
	case d >= time.Minute:
		return fmt.Sprintf("%.1fm", d.Minutes())
	case d >= time.Second:
		return fmt.Sprintf("%.2fs", d.Seconds())
	default:
		return fmt.Sprintf("%dms", d.Milliseconds())
	}
}

func fmtRun(r RunResult) string {
	s := fmtDur(r.Elapsed)
	reason := r.StopReason
	if reason == core.StopNone && r.TimedOut { // legacy deadline-only callers
		reason = core.StopDeadline
	}
	switch reason {
	case core.StopDeadline:
		s = "TLE(" + s + ")"
	case core.StopCanceled:
		s = "canceled(" + s + ")"
	case core.StopMemoryBudget:
		s = "mem(" + s + ")"
	case core.StopPanic:
		s = "panic(" + s + ")"
	}
	return s
}

func fmtMB(bytes uint64) string {
	return fmt.Sprintf("%.1f", float64(bytes)/(1<<20))
}

// writeCSV dumps rows (first row = header) into CSVDir/name.csv when
// configured.
func writeCSV(cfg Config, name string, rows [][]string) error {
	if cfg.CSVDir == "" {
		return nil
	}
	if err := os.MkdirAll(cfg.CSVDir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(cfg.CSVDir, name+".csv"))
	if err != nil {
		return err
	}
	w := csv.NewWriter(f)
	if err := w.WriteAll(rows); err != nil {
		f.Close()
		return err
	}
	w.Flush()
	if err := w.Error(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
