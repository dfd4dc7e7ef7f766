package harness

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/datasets"
	"repro/internal/engine"
)

func quickCfg(t *testing.T) Config {
	t.Helper()
	return Config{
		Quick:    true,
		TLE:      5 * time.Second,
		Threads:  2,
		Out:      &bytes.Buffer{},
		Datasets: []string{"UL", "UF"},
	}
}

func TestExperimentRegistry(t *testing.T) {
	want := []string{"fig10", "fig11", "fig12", "fig13", "fig14", "fig4", "fig5", "fig8", "fig9", "table1"}
	got := ExperimentNames()
	if len(got) != len(want) {
		t.Fatalf("experiments: %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("experiments: %v, want %v", got, want)
		}
	}
}

func TestAllExperimentsQuick(t *testing.T) {
	for _, name := range ExperimentNames() {
		name := name
		t.Run(name, func(t *testing.T) {
			cfg := quickCfg(t)
			if name == "fig13" {
				cfg.Datasets = []string{"LJ10"}
			}
			if name == "fig9" {
				// Keep fig9 fast: a single modest dataset and small TLE.
				cfg.Datasets = []string{"UL"}
				cfg.TLE = 3 * time.Second
			}
			var buf bytes.Buffer
			cfg.Out = &buf
			if err := Experiments[name](cfg); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if buf.Len() == 0 {
				t.Fatalf("%s produced no output", name)
			}
		})
	}
}

func TestRunAlgorithmAllNames(t *testing.T) {
	s, _ := datasets.ByName("UL")
	g := s.Build()
	cfg := quickCfg(t)
	var first int64 = -1
	for _, a := range []engine.ID{
		engine.Baseline, engine.AdaMBELN, engine.AdaMBEBIT, engine.AdaMBE, engine.ParAdaMBE,
		engine.FMBE, engine.PMBE, engine.OOMBEA, engine.ParMBE, engine.GMBE,
	} {
		r, err := RunAlgorithm(g, a, cfg, nil)
		if err != nil {
			t.Fatalf("%s: %v", a, err)
		}
		if first < 0 {
			first = r.Count
		} else if r.Count != first {
			t.Fatalf("%s: count %d, others %d", a, r.Count, first)
		}
		if r.Elapsed <= 0 {
			t.Fatalf("%s: non-positive elapsed", a)
		}
	}
}

func TestCSVOutput(t *testing.T) {
	cfg := quickCfg(t)
	cfg.CSVDir = t.TempDir()
	var buf bytes.Buffer
	cfg.Out = &buf
	if err := Fig5(cfg); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(cfg.CSVDir, "fig5.csv"))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(string(data), "dataset,inside_pct") {
		t.Fatalf("csv header wrong: %q", string(data[:40]))
	}
	lines := strings.Count(string(data), "\n")
	if lines < 3 { // header + 2 datasets
		t.Fatalf("csv rows: %d", lines)
	}
}

func TestUnknownDatasetRejected(t *testing.T) {
	cfg := quickCfg(t)
	cfg.Datasets = []string{"NOPE"}
	if err := Fig5(cfg); err == nil {
		t.Fatal("unknown dataset accepted")
	}
}

func TestHeapSampler(t *testing.T) {
	stop, peak := startHeapSampler()
	ballast := make([]byte, 64<<20)
	for i := range ballast {
		ballast[i] = byte(i)
	}
	time.Sleep(30 * time.Millisecond)
	stop()
	if peak() < 32<<20 {
		t.Fatalf("sampler missed the 64 MiB ballast: peak %d", peak())
	}
	_ = ballast[0]
}

func TestConfigDefaults(t *testing.T) {
	var c Config
	if c.tle() != 60*time.Second {
		t.Fatalf("default TLE = %v", c.tle())
	}
	c.Quick = true
	if c.tle() != 10*time.Second {
		t.Fatalf("quick TLE = %v", c.tle())
	}
	if c.threads() < 1 {
		t.Fatal("threads default < 1")
	}
	if c.out() == nil {
		t.Fatal("nil default writer")
	}
}

func TestFmtHelpers(t *testing.T) {
	if fmtDur(90*time.Second) != "1.5m" {
		t.Fatalf("fmtDur(90s) = %q", fmtDur(90*time.Second))
	}
	if fmtDur(1500*time.Millisecond) != "1.50s" {
		t.Fatalf("fmtDur = %q", fmtDur(1500*time.Millisecond))
	}
	if fmtDur(12*time.Millisecond) != "12ms" {
		t.Fatalf("fmtDur = %q", fmtDur(12*time.Millisecond))
	}
	if fmtMB(1<<20) != "1.0" {
		t.Fatalf("fmtMB = %q", fmtMB(1<<20))
	}
	r := RunResult{Elapsed: time.Second, StopReason: core.StopDeadline}
	if fmtRun(r) != "TLE(1.00s)" {
		t.Fatalf("fmtRun = %q", fmtRun(r))
	}
}
