package harness

import (
	"encoding/json"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/server"
)

// startLoadTarget boots a real mbed server on a loopback port.
func startLoadTarget(t *testing.T) string {
	t.Helper()
	srv, err := server.New(server.Config{Dir: t.TempDir(), Concurrency: 2})
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	httpSrv := &http.Server{Handler: srv.Handler()}
	go httpSrv.Serve(ln)
	t.Cleanup(func() {
		httpSrv.Close()
		srv.Close(5 * time.Second)
	})
	return "http://" + ln.Addr().String()
}

func TestRunLoadSweep(t *testing.T) {
	base := startLoadTarget(t)
	file, err := RunLoad(LoadConfig{
		BaseURL:      base,
		Dataset:      "UL",
		Levels:       []int{1, 2},
		JobsPerLevel: 2,
		Timeout:      60 * time.Second,
		SeedBase:     100,
		Logf:         t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(file.Rows) != 2 {
		t.Fatalf("rows = %d, want 2", len(file.Rows))
	}
	for i, r := range file.Rows {
		if r.OK != 2 || r.Shed != 0 || r.Errors != 0 {
			t.Errorf("row %d: ok=%d shed=%d err=%d, want 2/0/0", i, r.OK, r.Shed, r.Errors)
		}
		if r.P50MS <= 0 || r.P50MS > r.P99MS {
			t.Errorf("row %d: quantiles p50=%g p99=%g", i, r.P50MS, r.P99MS)
		}
		if r.ThroughputJPS <= 0 {
			t.Errorf("row %d: throughput %g", i, r.ThroughputJPS)
		}
	}

	// Round-trip through the schema gate CI runs.
	path := filepath.Join(t.TempDir(), "BENCH_server.json")
	if err := WriteBenchServer(file, path); err != nil {
		t.Fatal(err)
	}
	if err := ValidateBenchServer(path); err != nil {
		t.Fatalf("ValidateBenchServer: %v", err)
	}
}

func TestValidateBenchServerRejects(t *testing.T) {
	dir := t.TempDir()
	write := func(mutate func(*BenchServerFile)) string {
		f := BenchServerFile{
			Tool: "mbeload", Provenance: CollectProvenance(),
			Dataset: "UL", GraphID: "g",
			Rows: []LoadRow{{Concurrency: 1, Jobs: 2, OK: 2, P50MS: 1, P95MS: 2, P99MS: 3, ThroughputJPS: 1}},
		}
		if mutate != nil {
			mutate(&f)
		}
		blob, _ := json.Marshal(f)
		path := filepath.Join(dir, "f.json")
		if err := os.WriteFile(path, blob, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}

	if err := ValidateBenchServer(write(nil)); err != nil {
		t.Fatalf("well-formed file rejected: %v", err)
	}
	cases := map[string]func(*BenchServerFile){
		"wrong tool":      func(f *BenchServerFile) { f.Tool = "mbebench" },
		"no rows":         func(f *BenchServerFile) { f.Rows = nil },
		"count mismatch":  func(f *BenchServerFile) { f.Rows[0].OK = 1 },
		"bad quantiles":   func(f *BenchServerFile) { f.Rows[0].P50MS = 9 },
		"no provenance":   func(f *BenchServerFile) { f.GoVersion = "" },
		"zero latency ok": func(f *BenchServerFile) { f.Rows[0].P50MS, f.Rows[0].P95MS, f.Rows[0].P99MS = 0, 0, 0 },
	}
	for name, mutate := range cases {
		if err := ValidateBenchServer(write(mutate)); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

func TestMarkKnee(t *testing.T) {
	rows := []LoadRow{
		{Concurrency: 1, ThroughputJPS: 10},
		{Concurrency: 2, ThroughputJPS: 19},
		{Concurrency: 4, ThroughputJPS: 20},
		{Concurrency: 8, ThroughputJPS: 21},
	}
	markKnee(rows)
	if rows[1].SaturationKnee || !rows[2].SaturationKnee || rows[3].SaturationKnee {
		t.Fatalf("knee flags = %v %v %v %v, want only c=4",
			rows[0].SaturationKnee, rows[1].SaturationKnee, rows[2].SaturationKnee, rows[3].SaturationKnee)
	}

	shed := []LoadRow{
		{Concurrency: 1, ThroughputJPS: 10, Shed: 1},
		{Concurrency: 2, ThroughputJPS: 30},
	}
	markKnee(shed)
	if !shed[0].SaturationKnee {
		t.Fatal("shedding level not marked as knee")
	}
}

func TestParseLevels(t *testing.T) {
	got, err := ParseLevels("1, 2,8")
	if err != nil || len(got) != 3 || got[0] != 1 || got[1] != 2 || got[2] != 8 {
		t.Fatalf("ParseLevels = %v, %v", got, err)
	}
	for _, bad := range []string{"", "0", "a", "1,-2"} {
		if _, err := ParseLevels(bad); err == nil {
			t.Errorf("ParseLevels(%q): no error", bad)
		}
	}
}
