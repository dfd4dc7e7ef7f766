package server_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	mbe "repro"
	"repro/internal/server"
)

// smallGraph is the round-trip test graph: dense enough to have a
// non-trivial result set, small enough to enumerate in milliseconds.
func smallGraph() *mbe.Graph { return mbe.GenerateUniform(1, 200, 100, 2400) }

// bigGraph runs ~0.5s serial (several seconds under -race): long enough
// to reliably interrupt mid-run in the recovery tests.
func bigGraph() *mbe.Graph { return mbe.GenerateUniform(1, 600, 300, 18000) }

// directDigest enumerates g in memory and returns the reference digest
// the daemon's results must match.
func directDigest(t *testing.T, g *mbe.Graph) mbe.Digest {
	t.Helper()
	d, err := enumerateDigest(g)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func enumerateDigest(g *mbe.Graph) (mbe.Digest, error) {
	var d mbe.Digest
	_, err := mbe.Enumerate(g, mbe.Options{OnBiclique: d.Observe})
	return d, err
}

// bigDigest is bigGraph's reference digest, enumerated once per package
// run: it takes about 3 s under -race, and more than one test needs it.
var bigDigest = sync.OnceValues(func() (mbe.Digest, error) { return enumerateDigest(bigGraph()) })

// bigGraphDigest returns bigDigest, failing t if its enumeration failed.
func bigGraphDigest(t *testing.T) mbe.Digest {
	t.Helper()
	d, err := bigDigest()
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// testDaemon is one Server plus its httptest front end.
type testDaemon struct {
	t   *testing.T
	srv *server.Server
	ts  *httptest.Server
}

func startDaemon(t *testing.T, cfg server.Config) *testDaemon {
	t.Helper()
	if cfg.Dir == "" {
		cfg.Dir = t.TempDir()
	}
	if cfg.Logger == nil {
		cfg.Logger = slog.New(slog.NewTextHandler(testLog{t}, nil))
	}
	srv, err := server.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	d := &testDaemon{t: t, srv: srv, ts: ts}
	t.Cleanup(func() { d.stop() })
	return d
}

// testLog writes the daemon's log lines through t.Log.
type testLog struct{ t *testing.T }

func (w testLog) Write(p []byte) (int, error) {
	w.t.Log(strings.TrimSuffix(string(p), "\n"))
	return len(p), nil
}

func (d *testDaemon) stop() {
	d.ts.Close()
	if err := d.srv.Close(30 * time.Second); err != nil {
		d.t.Error(err)
	}
}

// do issues a request and decodes the JSON body into out (if non-nil).
func (d *testDaemon) do(method, path string, body io.Reader, out any) *http.Response {
	d.t.Helper()
	req, err := http.NewRequest(method, d.ts.URL+path, body)
	if err != nil {
		d.t.Fatal(err)
	}
	resp, err := d.ts.Client().Do(req)
	if err != nil {
		d.t.Fatal(err)
	}
	defer resp.Body.Close()
	blob, err := io.ReadAll(resp.Body)
	if err != nil {
		d.t.Fatal(err)
	}
	if out != nil {
		if err := json.Unmarshal(blob, out); err != nil {
			d.t.Fatalf("%s %s: bad JSON %q: %v", method, path, blob, err)
		}
	}
	return resp
}

// submitGraph uploads g in the binary format and returns its graph id.
func (d *testDaemon) submitGraph(g *mbe.Graph) string {
	d.t.Helper()
	var buf bytes.Buffer
	if err := g.WriteBinary(&buf); err != nil {
		d.t.Fatal(err)
	}
	var out struct {
		GraphID string `json:"graph_id"`
	}
	resp := d.do("POST", "/v1/graphs?format=binary", &buf, &out)
	if resp.StatusCode != http.StatusOK || out.GraphID == "" {
		d.t.Fatalf("submit graph: status %d, id %q", resp.StatusCode, out.GraphID)
	}
	return out.GraphID
}

type submitResponse struct {
	JobID    string            `json:"job_id"`
	State    server.JobState   `json:"state"`
	CacheHit bool              `json:"cache_hit"`
	Result   *server.JobResult `json:"result"`
	Error    string            `json:"error"`
}

func (d *testDaemon) submitJob(spec server.JobSpec) (submitResponse, *http.Response) {
	d.t.Helper()
	blob, _ := json.Marshal(spec)
	var out submitResponse
	resp := d.do("POST", "/v1/jobs", bytes.NewReader(blob), &out)
	return out, resp
}

// wait polls the job until it reaches a terminal state.
func (d *testDaemon) wait(jobID string, timeout time.Duration) server.Manifest {
	d.t.Helper()
	deadline := time.Now().Add(timeout)
	for {
		var st struct{ server.Manifest }
		resp := d.do("GET", "/v1/jobs/"+jobID, nil, &st)
		if resp.StatusCode != http.StatusOK {
			d.t.Fatalf("status %s: HTTP %d", jobID, resp.StatusCode)
		}
		if st.State.Terminal() {
			return st.Manifest
		}
		if time.Now().After(deadline) {
			d.t.Fatalf("job %s still %s after %v", jobID, st.State, timeout)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// streamDigest streams the job's NDJSON results and returns their digest
// and the response header.
func (d *testDaemon) streamDigest(jobID string) (mbe.Digest, http.Header) {
	d.t.Helper()
	resp, err := d.ts.Client().Get(d.ts.URL + "/v1/jobs/" + jobID + "/results")
	if err != nil {
		d.t.Fatal(err)
	}
	defer resp.Body.Close()
	var dg mbe.Digest
	dec := json.NewDecoder(resp.Body)
	for {
		var rec struct {
			L []int32 `json:"l"`
			R []int32 `json:"r"`
		}
		if err := dec.Decode(&rec); err == io.EOF {
			break
		} else if err != nil {
			d.t.Fatal(err)
		}
		dg.Observe(rec.L, rec.R)
	}
	return dg, resp.Header
}

func TestServerRoundTrip(t *testing.T) {
	d := startDaemon(t, server.Config{})
	g := smallGraph()
	want := directDigest(t, g)

	id := d.submitGraph(g)
	// Idempotent: same graph, same id.
	if again := d.submitGraph(g); again != id {
		t.Errorf("resubmitted graph got id %q, want %q", again, id)
	}

	sub, resp := d.submitJob(server.JobSpec{GraphID: id})
	if resp.StatusCode != http.StatusAccepted || sub.JobID == "" {
		t.Fatalf("submit job: status %d, %+v", resp.StatusCode, sub)
	}

	m := d.wait(sub.JobID, time.Minute)
	if m.State != server.JobDone || m.Result == nil {
		t.Fatalf("job finished %s (error %q), want done", m.State, m.Error)
	}
	if m.Result.Count != want.Count || m.Result.Digest != want.String() {
		t.Errorf("daemon digest %s (count %d), direct run %s (count %d)",
			m.Result.Digest, m.Result.Count, want.String(), want.Count)
	}

	// Result streaming replays the full multiset.
	streamed, hdr := d.streamDigest(sub.JobID)
	if h := hdr.Get("X-MBE-Partial"); h != "" {
		t.Errorf("done job streamed with X-MBE-Partial=%q", h)
	}
	if streamed != want {
		t.Errorf("streamed digest %s, want %s", streamed.String(), want.String())
	}

	// Same spec again: served from the result cache, no recompute.
	hit, resp2 := d.submitJob(server.JobSpec{GraphID: id})
	if resp2.StatusCode != http.StatusOK || !hit.CacheHit || hit.JobID != sub.JobID {
		t.Errorf("resubmit: status %d %+v, want cache hit on job %s", resp2.StatusCode, hit, sub.JobID)
	}
	if hit.Result == nil || hit.Result.Digest != want.String() {
		t.Errorf("cache hit result %+v, want digest %s", hit.Result, want.String())
	}
}

// TestServerConcurrentClients sends four clients through submit, poll,
// stream and digest check at once. Each client submits both its jobs
// before it waits on either, so more jobs are in flight than the daemon
// has executors. Every job has its own rand seed, so the result cache
// serves none of them. The clients are parallel subtests because the
// testDaemon helpers fail through their own t.
func TestServerConcurrentClients(t *testing.T) {
	d := startDaemon(t, server.Config{Concurrency: 2})
	g := smallGraph()
	want := directDigest(t, g)
	id := d.submitGraph(g)
	for c := 0; c < 4; c++ {
		t.Run(fmt.Sprintf("client%d", c), func(t *testing.T) {
			t.Parallel()
			cd := &testDaemon{t: t, srv: d.srv, ts: d.ts}
			var jobs []string
			for j := 0; j < 2; j++ {
				seed := int64(1 + 2*c + j)
				sub, resp := cd.submitJob(server.JobSpec{GraphID: id, Ordering: "rand", Seed: seed})
				if resp.StatusCode != http.StatusAccepted || sub.CacheHit {
					t.Fatalf("seed %d: submit status %d, %+v; want 202 and no cache hit", seed, resp.StatusCode, sub)
				}
				jobs = append(jobs, sub.JobID)
			}
			for _, job := range jobs {
				m := cd.wait(job, time.Minute)
				if m.State != server.JobDone || m.Result == nil {
					t.Fatalf("job %s finished %s (error %q), want done", job, m.State, m.Error)
				}
				streamed, _ := cd.streamDigest(job)
				if m.Result.Digest != want.String() || streamed != want {
					t.Errorf("job %s: manifest digest %s, streamed %s, direct run %s",
						job, m.Result.Digest, streamed.String(), want.String())
				}
			}
		})
	}
}

// TestServerBBKJob runs a daemon job under the BBK engine, submitted in
// the JSON convention's lowercase spelling, and requires the spooled
// result to match a direct in-memory enumeration digest — the end-to-end
// proof that BBK supports the durable-spool lifecycle the daemon needs —
// and its spool output to be counted in the daemon's metrics.
func TestServerBBKJob(t *testing.T) {
	d := startDaemon(t, server.Config{})
	g := smallGraph()
	want := directDigest(t, g)

	id := d.submitGraph(g)
	sub, resp := d.submitJob(server.JobSpec{GraphID: id, Algorithm: "bbk"})
	if resp.StatusCode != http.StatusAccepted || sub.JobID == "" {
		t.Fatalf("submit bbk job: status %d, %+v", resp.StatusCode, sub)
	}
	m := d.wait(sub.JobID, time.Minute)
	if m.State != server.JobDone || m.Result == nil {
		t.Fatalf("bbk job finished %s (error %q), want done", m.State, m.Error)
	}
	if m.Result.Count != want.Count || m.Result.Digest != want.String() {
		t.Errorf("bbk daemon digest %s (count %d), direct run %s (count %d)",
			m.Result.Digest, m.Result.Count, want.String(), want.Count)
	}
	if got := d.scrapeMetrics()["mbed_spool_bytes_total"]; got <= 0 {
		t.Errorf("mbed_spool_bytes_total = %v after a bbk job, want > 0", got)
	}
}

func TestServerRejectsBadSubmissions(t *testing.T) {
	d := startDaemon(t, server.Config{})
	id := d.submitGraph(smallGraph())

	for name, tc := range map[string]struct {
		spec server.JobSpec
		code int
	}{
		"missing graph": {server.JobSpec{GraphID: "nope"}, http.StatusNotFound},
		"no graph id":   {server.JobSpec{}, http.StatusBadRequest},
		"bad algorithm": {server.JobSpec{GraphID: id, Algorithm: "FMBE"}, http.StatusBadRequest},
		"bad ordering":  {server.JobSpec{GraphID: id, Ordering: "zigzag"}, http.StatusBadRequest},
		"negative":      {server.JobSpec{GraphID: id, Threads: -1}, http.StatusBadRequest},
	} {
		if _, resp := d.submitJob(tc.spec); resp.StatusCode != tc.code {
			t.Errorf("%s: status %d, want %d", name, resp.StatusCode, tc.code)
		}
	}

	resp := d.do("POST", "/v1/graphs", strings.NewReader("onlyonefield\n"), nil)
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("garbage graph upload: status %d, want 400", resp.StatusCode)
	}
	if resp := d.do("GET", "/v1/jobs/jdeadbeef", nil, nil); resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown job status: %d, want 404", resp.StatusCode)
	}
}

func TestServerCancel(t *testing.T) {
	d := startDaemon(t, server.Config{CheckpointEvery: 5 * time.Millisecond})
	id := d.submitGraph(bigGraph())
	sub, resp := d.submitJob(server.JobSpec{GraphID: id, Threads: 1})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: %d", resp.StatusCode)
	}

	// Wait until it is actually running, then cancel.
	deadline := time.Now().Add(30 * time.Second)
	for {
		var st struct{ server.Manifest }
		d.do("GET", "/v1/jobs/"+sub.JobID, nil, &st)
		if st.State == server.JobRunning {
			break
		}
		if st.State.Terminal() {
			t.Fatalf("job reached %s before it could be canceled", st.State)
		}
		if time.Now().After(deadline) {
			t.Fatal("job never started running")
		}
		time.Sleep(2 * time.Millisecond)
	}
	if resp := d.do("POST", "/v1/jobs/"+sub.JobID+"/cancel", nil, nil); resp.StatusCode != http.StatusOK {
		t.Fatalf("cancel: %d", resp.StatusCode)
	}
	m := d.wait(sub.JobID, 30*time.Second)
	if m.State != server.JobCanceled {
		t.Errorf("state after cancel = %s (error %q), want canceled", m.State, m.Error)
	}

	// A canceled job's durable prefix stays readable, flagged partial.
	if _, hdr := d.streamDigest(sub.JobID); hdr.Get("X-MBE-Partial") != "true" {
		t.Errorf("canceled job results not flagged partial")
	}
}

func TestServerDeadlineIsTerminal(t *testing.T) {
	d := startDaemon(t, server.Config{CheckpointEvery: 5 * time.Millisecond})
	id := d.submitGraph(bigGraph())
	sub, resp := d.submitJob(server.JobSpec{GraphID: id, Threads: 1, DeadlineMS: 50})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: %d", resp.StatusCode)
	}
	m := d.wait(sub.JobID, time.Minute)
	if m.State != server.JobFailed || !strings.Contains(m.Error, "deadline") {
		t.Errorf("state = %s (error %q), want failed with deadline error", m.State, m.Error)
	}
	if m.Attempts > 1 {
		t.Errorf("deadline failure took %d attempts, want 1 (deadline must not be retried)", m.Attempts)
	}
}

func TestServerHealthz(t *testing.T) {
	d := startDaemon(t, server.Config{})
	var out struct {
		Status    string `json:"status"`
		JobsTotal int    `json:"jobs_total"`
	}
	resp := d.do("GET", "/healthz", nil, &out)
	if resp.StatusCode != http.StatusOK || out.Status != "ok" {
		t.Fatalf("healthz: %d %+v", resp.StatusCode, out)
	}
}

// TestParseHelpers pins the shared flag/config spellings the CLI and
// the daemon both accept.
func TestParseHelpers(t *testing.T) {
	if a, err := mbe.ParseAlgorithm(""); err != nil || a != mbe.AdaMBE {
		t.Errorf(`ParseAlgorithm("") = %v, %v; want AdaMBE`, a, err)
	}
	if _, err := mbe.ParseAlgorithm("NoSuchAlgo"); err == nil {
		t.Error("ParseAlgorithm accepted garbage")
	}
	if o, err := mbe.ParseOrdering(""); err != nil || o != mbe.OrderAscendingDegree {
		t.Errorf(`ParseOrdering("") = %v, %v; want asc`, o, err)
	}
	for _, name := range mbe.AlgorithmNames {
		if _, err := mbe.ParseAlgorithm(name); err != nil {
			t.Errorf("ParseAlgorithm(%q): %v", name, err)
		}
	}
	for _, name := range mbe.OrderingNames {
		if _, err := mbe.ParseOrdering(name); err != nil {
			t.Errorf("ParseOrdering(%q): %v", name, err)
		}
	}
}
