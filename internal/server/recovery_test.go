package server_test

import (
	"errors"
	"net/http"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/server"
)

var errInjected = errors.New("injected attempt fault")

// waitForFile polls until path exists (the durable evidence the test
// needs before simulating a crash).
func waitForFile(t *testing.T, path string, timeout time.Duration) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for {
		if _, err := os.Stat(path); err == nil {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("%s never appeared", path)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestRecoveryResumesInterruptedJob is the crash-safety core: a job is
// interrupted mid-run after its first durable checkpoint, the daemon is
// torn down without writing a terminal state (exactly what a kill -9
// leaves behind: a manifest saying "running" and a half-written spool),
// and a fresh daemon over the same store must finish it exactly-once —
// the digest of the recovered job equals a direct in-process run, which
// fails on any dropped or duplicated biclique.
func TestRecoveryResumesInterruptedJob(t *testing.T) {
	dir := t.TempDir()
	g := bigGraph()
	want := bigGraphDigest(t)

	d1 := startDaemon(t, server.Config{
		Dir:             dir,
		Concurrency:     1,
		CheckpointEvery: 2 * time.Millisecond,
	})
	id := d1.submitGraph(g)
	sub, resp := d1.submitJob(server.JobSpec{GraphID: id, Threads: 1})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: %d", resp.StatusCode)
	}

	// Wait for the first durable checkpoint, then "crash" — Close
	// cancels the running attempt, and shutdown interruptions are
	// deliberately NOT recorded as terminal states.
	spoolDir := filepath.Join(dir, "jobs", sub.JobID, "spool")
	waitForFile(t, filepath.Join(spoolDir, "checkpoint.json"), 30*time.Second)
	d1.stop()

	m, err := readManifest(dir, sub.JobID)
	if err != nil {
		t.Fatal(err)
	}
	if m.State.Terminal() {
		t.Fatalf("manifest after interrupt says %s; must stay resumable", m.State)
	}

	// Restart over the same store: recovery re-enqueues and the job
	// finishes from its checkpoint.
	d2 := startDaemon(t, server.Config{Dir: dir, Concurrency: 1})
	final := d2.wait(sub.JobID, 2*time.Minute)
	if final.State != server.JobDone || final.Result == nil {
		t.Fatalf("recovered job finished %s (error %q), want done", final.State, final.Error)
	}
	if final.Result.Count != want.Count || final.Result.Digest != want.String() {
		t.Errorf("recovered digest %s (count %d) != direct %s (count %d) — resume was not exactly-once",
			final.Result.Digest, final.Result.Count, want.String(), want.Count)
	}
}

// readManifest loads a job manifest straight off disk, bypassing any
// daemon — the view a restarted process starts from.
func readManifest(dir, jobID string) (server.Manifest, error) {
	st, err := server.OpenStore(dir)
	if err != nil {
		return server.Manifest{}, err
	}
	return st.ReadManifest(jobID)
}

// TestRecoveryResumesWithTornCheckpoint layers spool corruption on top
// of the interrupt: the checkpoint is truncated mid-write (a crash
// during the atomic rename's window cannot do this, but a torn disk
// can). The daemon must warn, restart the job from scratch, and still
// produce the exact digest.
func TestRecoveryResumesWithTornCheckpoint(t *testing.T) {
	dir := t.TempDir()
	g := bigGraph()
	want := bigGraphDigest(t)

	d1 := startDaemon(t, server.Config{Dir: dir, Concurrency: 1, CheckpointEvery: 2 * time.Millisecond})
	id := d1.submitGraph(g)
	sub, resp := d1.submitJob(server.JobSpec{GraphID: id, Threads: 1})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: %d", resp.StatusCode)
	}
	ckptPath := filepath.Join(dir, "jobs", sub.JobID, "spool", "checkpoint.json")
	waitForFile(t, ckptPath, 30*time.Second)
	d1.stop()

	blob, err := os.ReadFile(ckptPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(ckptPath, blob[:len(blob)/2], 0o644); err != nil {
		t.Fatal(err)
	}

	d2 := startDaemon(t, server.Config{Dir: dir, Concurrency: 1})
	final := d2.wait(sub.JobID, 2*time.Minute)
	if final.State != server.JobDone || final.Result == nil {
		t.Fatalf("job after torn checkpoint finished %s (error %q), want done", final.State, final.Error)
	}
	if final.Result.Count != want.Count || final.Result.Digest != want.String() {
		t.Errorf("digest after torn-checkpoint recovery %s (count %d) != direct %s (count %d)",
			final.Result.Digest, final.Result.Count, want.String(), want.Count)
	}
	// The silent-data-loss near-miss must be observable: the corrupt
	// checkpoint increments its dedicated counter (it pages, the generic
	// job_warning does not — docs/OBSERVABILITY.md).
	if m := d2.scrapeMetrics(); m["mbed_ckpt_corrupt_recovered_total"] < 1 {
		t.Errorf("mbed_ckpt_corrupt_recovered_total = %v after torn-checkpoint recovery, want >= 1",
			m["mbed_ckpt_corrupt_recovered_total"])
	}
}

// TestRecoveryAdoptsDoneJobs: completed jobs survive a restart as cache
// entries — resubmitting the same spec is served from the old job's
// spool without enumerating anything.
func TestRecoveryAdoptsDoneJobs(t *testing.T) {
	dir := t.TempDir()
	g := smallGraph()
	want := directDigest(t, g)

	d1 := startDaemon(t, server.Config{Dir: dir})
	id := d1.submitGraph(g)
	sub, _ := d1.submitJob(server.JobSpec{GraphID: id})
	if m := d1.wait(sub.JobID, time.Minute); m.State != server.JobDone {
		t.Fatalf("job finished %s", m.State)
	}
	d1.stop()

	// The restarted daemon would fail any attempt instantly — proof a
	// cache hit never reaches the executor.
	d2 := startDaemon(t, server.Config{
		Dir:       dir,
		FaultHook: func(site string) error { t.Errorf("attempt ran at %s; cache was not used", site); return nil },
	})
	hit, resp := d2.submitJob(server.JobSpec{GraphID: id})
	if resp.StatusCode != http.StatusOK || !hit.CacheHit || hit.JobID != sub.JobID {
		t.Fatalf("resubmit after restart: status %d %+v, want cache hit on %s", resp.StatusCode, hit, sub.JobID)
	}
	if hit.Result == nil || hit.Result.Digest != want.String() {
		t.Errorf("cached result %+v, want digest %s", hit.Result, want.String())
	}
}

// TestRecoverySkipsUncommittedJobDir: a job directory without a
// readable manifest (crash between MkdirAll and the first manifest
// write) is skipped, not fatal.
func TestRecoverySkipsUncommittedJobDir(t *testing.T) {
	dir := t.TempDir()
	if err := os.MkdirAll(filepath.Join(dir, "jobs", "jhalfborn"), 0o755); err != nil {
		t.Fatal(err)
	}
	d := startDaemon(t, server.Config{Dir: dir})
	var out struct {
		Jobs []server.Manifest `json:"jobs"`
	}
	if resp := d.do("GET", "/v1/jobs", nil, &out); resp.StatusCode != http.StatusOK {
		t.Fatalf("list: %d", resp.StatusCode)
	}
	if len(out.Jobs) != 0 {
		t.Errorf("uncommitted job dir surfaced as %+v", out.Jobs)
	}
}

// TestRetryPathRecovers drives the bounded-retry loop with injected
// attempt faults: two injected failures, then success — the job must
// come out done on the third attempt with the right digest.
func TestRetryPathRecovers(t *testing.T) {
	g := smallGraph()
	want := directDigest(t, g)
	fails := 2
	d := startDaemon(t, server.Config{
		Backoff: server.Backoff{Base: time.Millisecond},
		FaultHook: func(site string) error {
			if site == "server/attempt" && fails > 0 {
				fails--
				return errInjected
			}
			return nil
		},
	})
	id := d.submitGraph(g)
	sub, _ := d.submitJob(server.JobSpec{GraphID: id})
	m := d.wait(sub.JobID, time.Minute)
	if m.State != server.JobDone || m.Attempts != 3 {
		t.Fatalf("state %s after %d attempts (error %q), want done after 3", m.State, m.Attempts, m.Error)
	}
	if m.Result.Digest != want.String() {
		t.Errorf("digest %s, want %s", m.Result.Digest, want.String())
	}
}

// TestRetryBudgetExhaustedIsTerminal: a job whose every attempt fails
// lands in the terminal failed state with the error preserved.
func TestRetryBudgetExhaustedIsTerminal(t *testing.T) {
	d := startDaemon(t, server.Config{
		MaxAttempts: 2,
		Backoff:     server.Backoff{Base: time.Millisecond},
		FaultHook:   func(site string) error { return errInjected },
	})
	id := d.submitGraph(smallGraph())
	sub, _ := d.submitJob(server.JobSpec{GraphID: id})
	m := d.wait(sub.JobID, time.Minute)
	if m.State != server.JobFailed || m.Attempts != 2 || m.Error == "" {
		t.Fatalf("state %s after %d attempts (error %q), want failed after 2 with error kept",
			m.State, m.Attempts, m.Error)
	}
}
