package main

import (
	"bytes"
	"encoding/json"
	"io"
	"os"
	"strings"
	"testing"
	"time"

	mbe "repro"
)

// smokeConfig is a short run of one workload on tiny graphs.
func smokeConfig(t *testing.T, workload string, trace bool) config {
	return config{
		workload: workload, seed: 3, seconds: 700 * time.Millisecond, trace: trace,
		outDir: t.TempDir(), tiny: true, corruptOp: -1, log: io.Discard,
	}
}

// benchmarkFile is the part of ../BENCHMARK.json the test checks.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

// TestSmoke runs every workload untraced and traced on tiny graphs and
// checks that each run is correct and emits exactly the metrics
// BENCHMARK.json declares, with their units.
func TestSmoke(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(data, &bf); err != nil {
		t.Fatal(err)
	}
	if len(bf.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the benchmark %d", len(bf.Workloads), len(workloads))
	}
	for i, w := range bf.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: BENCHMARK.json %q, benchmark %q", i, w.Name, workloads[i].name)
		}
	}
	want := map[bool]map[string]string{false: {}, true: {}}
	for _, m := range bf.EndToEnd {
		want[false][m.Name] = m.Unit
	}
	for _, m := range bf.PerLayer {
		want[true][m.Name] = m.Unit
	}

	for _, w := range workloads {
		for _, trace := range []bool{false, true} {
			var out bytes.Buffer
			res, err := runWorkload(smokeConfig(t, w.name, trace), &out)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w.name, trace, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace=%v: correct=%v failed=%d attempted=%d", w.name, trace, res.Correct, res.Failed, res.Attempted)
			}
			if len(res.Metrics) != len(want[trace]) {
				t.Errorf("%s trace=%v: %d metrics, BENCHMARK.json declares %d", w.name, trace, len(res.Metrics), len(want[trace]))
			}
			for name, unit := range want[trace] {
				m, ok := res.Metrics[name]
				if !ok || m.Unit != unit {
					t.Errorf("%s trace=%v: metric %s = %+v (present %v), want unit %q", w.name, trace, name, m, ok, unit)
				}
			}
			if !strings.Contains(out.String(), `"provenance"`) {
				t.Errorf("%s trace=%v: no provenance line", w.name, trace)
			}
		}
	}
}

// TestSmokeTracedCounts checks the counts a traced run must get exactly
// right on any graph.
func TestSmokeTracedCounts(t *testing.T) {
	res, err := runWorkload(smokeConfig(t, onJobs, true), io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Metrics["server.cache_hit_ratio"].Value; got != 0.25 {
		t.Errorf("server.cache_hit_ratio = %v, want 0.25", got)
	}
	if got := res.Metrics["server.polls_per_job"].Value; got != 1 {
		t.Errorf("server.polls_per_job = %v, want 1 (the client should wake on the job's end)", got)
	}
	res, err = runWorkload(smokeConfig(t, onPar2, true), io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Metrics["dist.intersection_inflation"].Value; got < 1 {
		t.Errorf("dist.intersection_inflation = %v, want >= 1", got)
	}
}

// TestCorruptDigestCounted perturbs one op's digest and checks that the
// run counts it as a failure and reports itself incorrect.
func TestCorruptDigestCounted(t *testing.T) {
	for _, w := range workloads {
		cfg := smokeConfig(t, w.name, false)
		cfg.corruptOp = 2
		res, err := runWorkload(cfg, io.Discard)
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		if res.Correct || res.Failed != 1 {
			t.Errorf("%s: correct=%v failed=%d, want one failed op", w.name, res.Correct, res.Failed)
		}
	}
}

// TestDigestNDJSON checks the hand-parsed compact records against
// encoding/json, including lines that must take the encoding/json path.
func TestDigestNDJSON(t *testing.T) {
	recs := [][2][]int32{{{1, 2, 3}, {40}}, {{2147483647}, {0, 9, 10}}, {{7}, {}}}
	var want mbe.Digest
	var compact bytes.Buffer
	for _, rec := range recs {
		want.Observe(rec[0], rec[1])
		line, err := json.Marshal(map[string][]int32{"l": rec[0], "r": rec[1]})
		if err != nil {
			t.Fatal(err)
		}
		compact.Write(append(line, '\n'))
	}
	spaced := strings.NewReplacer(",", ", ", ":", ": ").Replace(compact.String())
	for _, data := range []string{compact.String(), spaced, strings.TrimSuffix(compact.String(), "\n")} {
		got, err := digestNDJSON([]byte(data))
		if err != nil || !got.Equal(want) {
			t.Errorf("digestNDJSON(%q) = %v, %v; want %v", data, got, err, want)
		}
	}
	for _, bad := range []string{`{"l":[1,2],"r":[3]`, `{"l":[1,],"r":[3]}`, `{"l":[2147483648],"r":[1]}`} {
		if _, err := digestNDJSON([]byte(bad)); err == nil {
			t.Errorf("digestNDJSON(%q) accepted a malformed record", bad)
		}
	}
}

// TestRunRejectsBadArgs checks the command's exit codes for bad input.
func TestRunRejectsBadArgs(t *testing.T) {
	for _, args := range [][]string{
		{"--workload", "nope", "--seconds", "1"},
		{"--workload", onPar2, "--trace", "2"},
	} {
		var out bytes.Buffer
		if code := run(append(args, "--out", t.TempDir()), &out, io.Discard); code == 0 {
			t.Errorf("run(%q) exited 0", args)
		}
		if out.Len() != 0 {
			t.Errorf("run(%q) printed %q", args, out.String())
		}
	}
}
