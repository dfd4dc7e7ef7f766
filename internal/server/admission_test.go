package server_test

import (
	"bytes"
	"encoding/json"
	"net/http"
	"slices"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/faultinject"
	"repro/internal/server"
)

func marshalSpec(t *testing.T, spec server.JobSpec) *bytes.Reader {
	t.Helper()
	blob, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	return bytes.NewReader(blob)
}

// expectShed asserts a 429 with a usable Retry-After header and the
// retry hint mirrored into the JSON body.
func expectShed(t *testing.T, d *testDaemon, spec server.JobSpec, context string) {
	t.Helper()
	blob := marshalSpec(t, spec)
	req, _ := http.NewRequest("POST", d.ts.URL+"/v1/jobs", blob)
	resp, err := d.ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("%s: status %d, want 429", context, resp.StatusCode)
	}
	ra := resp.Header.Get("Retry-After")
	secs, err := strconv.Atoi(ra)
	if err != nil || secs < 1 {
		t.Errorf("%s: Retry-After = %q, want an integer >= 1", context, ra)
	}
}

// TestSaturationShedsButReadsSurvive is the load-shedding acceptance
// test: with the queue saturated by in-flight work, further submits are
// shed with 429 + Retry-After while status reads, job listings, result
// streams and /debug endpoints all keep answering, and once the
// in-flight jobs are canceled a submit is admitted again.
func TestSaturationShedsButReadsSurvive(t *testing.T) {
	checkLeaks := faultinject.CheckGoroutines(t)

	d := startDaemon(t, server.Config{
		Concurrency:     1,
		MaxJobs:         2,
		CheckpointEvery: 5 * time.Millisecond,
	})
	id := d.submitGraph(bigGraph())

	// Two slow jobs fill the admission window (one running, one queued).
	// Distinct seeds keep the second out of the first's cache key.
	first, resp1 := d.submitJob(server.JobSpec{GraphID: id, Threads: 1, Ordering: "rand", Seed: 1})
	second, resp2 := d.submitJob(server.JobSpec{GraphID: id, Threads: 1, Ordering: "rand", Seed: 2})
	if resp1.StatusCode != http.StatusAccepted || resp2.StatusCode != http.StatusAccepted {
		t.Fatalf("fills: %d, %d", resp1.StatusCode, resp2.StatusCode)
	}
	// The work is in flight once the first attempt publishes its run;
	// until then /debug/progress rightly answers 404 (no active run).
	for deadline := time.Now().Add(30 * time.Second); d.do("GET", "/debug/progress", nil, nil).StatusCode != http.StatusOK; {
		if time.Now().After(deadline) {
			t.Fatal("the first job's run was never published")
		}
		time.Sleep(time.Millisecond)
	}

	expectShed(t, d, server.JobSpec{GraphID: id, Threads: 1, Ordering: "rand", Seed: 3}, "queue full")

	// Reads keep working while saturated.
	for _, path := range []string{
		"/healthz",
		"/v1/jobs",
		"/v1/jobs/" + first.JobID,
		"/v1/jobs/" + first.JobID + "/results",
		"/v1/jobs/" + second.JobID,
		"/debug/progress",
	} {
		if resp := d.do("GET", path, nil, nil); resp.StatusCode != http.StatusOK {
			t.Errorf("GET %s while saturated: %d, want 200", path, resp.StatusCode)
		}
	}

	// The listing holds exactly the two admitted jobs: the shed submit
	// was never silently queued.
	var list struct {
		Jobs []server.Manifest `json:"jobs"`
	}
	d.do("GET", "/v1/jobs", nil, &list)
	var listed []string
	for _, m := range list.Jobs {
		listed = append(listed, m.ID)
	}
	slices.Sort(listed)
	admitted := []string{first.JobID, second.JobID}
	slices.Sort(admitted)
	if !slices.Equal(listed, admitted) {
		t.Errorf("GET /v1/jobs while saturated lists %v, want the admitted %v", listed, admitted)
	}

	// Cancel both: their slots free and the shed submit passes admission.
	for _, jid := range admitted {
		if resp := d.do("POST", "/v1/jobs/"+jid+"/cancel", nil, nil); resp.StatusCode != http.StatusOK {
			t.Fatalf("cancel %s: %d", jid, resp.StatusCode)
		}
	}
	for _, jid := range admitted {
		if m := d.wait(jid, 30*time.Second); m.State != server.JobCanceled {
			t.Errorf("job %s ended %s, want canceled", jid, m.State)
		}
	}
	if _, resp := d.submitJob(server.JobSpec{GraphID: id, Threads: 1, Ordering: "rand", Seed: 3}); resp.StatusCode != http.StatusAccepted {
		t.Errorf("submit after the cancels: %d, want 202", resp.StatusCode)
	}

	d.stop()
	checkLeaks()
}

// TestMemoryBudgetSheds: admission also sheds on the server-wide soft
// memory budget, independently of the queue bound.
func TestMemoryBudgetSheds(t *testing.T) {
	d := startDaemon(t, server.Config{
		Concurrency:        1,
		MaxJobs:            16,
		MemBudgetBytes:     1 << 20, // one default-sized job fits, two don't
		DefaultJobMemBytes: 1 << 20,
		CheckpointEvery:    5 * time.Millisecond,
	})
	id := d.submitGraph(bigGraph())
	if _, resp := d.submitJob(server.JobSpec{GraphID: id, Threads: 1}); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("first submit: %d", resp.StatusCode)
	}
	expectShed(t, d, server.JobSpec{GraphID: id, Threads: 1, Seed: 9, Ordering: "rand"}, "memory budget")
}

// TestMemoryTripShedsEngineWidth: a job that blows its memory budget is
// retried at half width only while the engine has parallelism to shed. A
// serial engine asked for 4 threads runs one worker, so its trip is
// terminal at once; ParAdaMBE sheds 4 → 2 → 1 before failing.
func TestMemoryTripShedsEngineWidth(t *testing.T) {
	for _, tc := range []struct {
		algorithm       string
		attempts, sheds int
		effective       int
	}{
		{"AdaMBE", 1, 0, 0},
		{"BBK", 1, 0, 0},
		{"ParAdaMBE", 3, 2, 1},
	} {
		t.Run(tc.algorithm, func(t *testing.T) {
			d := startDaemon(t, server.Config{
				CheckpointEvery: 5 * time.Millisecond,
				Backoff:         server.Backoff{Base: time.Millisecond},
			})
			id := d.submitGraph(bigGraph())
			sub, resp := d.submitJob(server.JobSpec{GraphID: id, Algorithm: tc.algorithm, Threads: 4, MaxMemoryBytes: 4096})
			if resp.StatusCode != http.StatusAccepted {
				t.Fatalf("submit: %d", resp.StatusCode)
			}
			m := d.wait(sub.JobID, time.Minute)
			if m.State != server.JobFailed || !strings.Contains(m.Error, "memory budget exceeded at minimum parallelism") {
				t.Fatalf("state = %s (error %q), want failed at minimum parallelism", m.State, m.Error)
			}
			if m.Attempts != tc.attempts || m.EffectiveThreads != tc.effective {
				t.Errorf("attempts = %d, effective threads = %d; want %d, %d", m.Attempts, m.EffectiveThreads, tc.attempts, tc.effective)
			}
			if got := d.scrapeMetrics()["mbed_parallelism_sheds_total"]; got != float64(tc.sheds) {
				t.Errorf("mbed_parallelism_sheds_total = %v, want %d", got, tc.sheds)
			}
		})
	}
}

// TestRateLimitSheds: the token bucket sheds submit-side requests (both
// endpoints share it) while reads stay exempt.
func TestRateLimitSheds(t *testing.T) {
	d := startDaemon(t, server.Config{RatePerSec: 0.0001, Burst: 1})
	id := d.submitGraph(smallGraph()) // consumes the only token
	expectShed(t, d, server.JobSpec{GraphID: id}, "rate limit")
	if resp := d.do("GET", "/healthz", nil, nil); resp.StatusCode != http.StatusOK {
		t.Errorf("healthz rate-limited: %d", resp.StatusCode)
	}
}

// TestNoGoroutineLeaks runs a full lifecycle — submit, enumerate,
// stream, cancel, shutdown — and then requires the goroutine count to
// return to its baseline.
func TestNoGoroutineLeaks(t *testing.T) {
	checkLeaks := faultinject.CheckGoroutines(t)
	d := startDaemon(t, server.Config{Concurrency: 2})
	id := d.submitGraph(smallGraph())
	sub, _ := d.submitJob(server.JobSpec{GraphID: id})
	d.wait(sub.JobID, time.Minute)
	d.do("GET", "/v1/jobs/"+sub.JobID+"/results", nil, nil)
	d.stop()
	checkLeaks()
}
