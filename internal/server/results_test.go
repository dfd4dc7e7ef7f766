package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"log/slog"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	mbe "repro"
)

// resultRecord is the reference for one NDJSON result line: the bytes
// json.Encoder writes for it are what appendResultLine must produce.
type resultRecord struct {
	L []int32 `json:"l"`
	R []int32 `json:"r"`
}

func TestAppendResultLineMatchesEncoder(t *testing.T) {
	boundary := []int32{0, 9, 10, 99, 100, 999, 1000, math.MaxInt32}
	var cases []resultRecord
	for _, v := range boundary {
		cases = append(cases, resultRecord{[]int32{v}, []int32{v}})
	}
	cases = append(cases, resultRecord{boundary, boundary[1:3]})
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 1000; i++ {
		cases = append(cases, resultRecord{randomSide(rng), randomSide(rng)})
	}
	var want bytes.Buffer
	var got []byte
	for _, c := range cases {
		want.Reset()
		if err := json.NewEncoder(&want).Encode(c); err != nil {
			t.Fatal(err)
		}
		got = appendResultLine(got[:0], c.L, c.R)
		if !bytes.Equal(got, want.Bytes()) {
			t.Fatalf("appendResultLine(%v, %v) = %q, json.Encoder wrote %q", c.L, c.R, got, want.Bytes())
		}
	}
}

// randomSide returns 1–300 strictly ascending ids in [0, 2^31−1], their
// magnitudes spread over every digit count.
func randomSide(rng *rand.Rand) []int32 {
	side := make([]int32, 1+rng.Intn(300))
	for i := range side {
		side[i] = int32(rng.Int63n(int64(1) << (1 + rng.Intn(31))))
	}
	slices.Sort(side)
	return slices.Compact(side)
}

// ygQuarter is a YouTube-like affiliation graph at a quarter of
// e2ebench's YG-like size: 19,347 bicliques, 1.18 MB of NDJSON.
func ygQuarter() *mbe.Graph {
	return mbe.GenerateAffiliation(1, mbe.AffiliationConfig{
		NU: 4000, NV: 1250, Communities: 650, MeanU: 12, MeanV: 4, Density: 0.85, NoiseEdges: 2250,
	}).Orient()
}

// lockedBuffer collects the daemon's log lines from every goroutine.
type lockedBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *lockedBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *lockedBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// newTestServer opens a Server on a fresh store, logging into log when
// it is non-nil; tb's cleanup closes it.
func newTestServer(tb testing.TB, cfg Config, log *lockedBuffer) *Server {
	tb.Helper()
	cfg.Dir = tb.TempDir()
	if log != nil {
		cfg.Logger = slog.New(slog.NewTextHandler(log, nil))
	}
	s, err := New(cfg)
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() {
		if err := s.Close(30 * time.Second); err != nil {
			tb.Error(err)
		}
	})
	return s
}

// submitJob stores g and submits spec's job on it through the handler.
func submitJob(tb testing.TB, s *Server, g *mbe.Graph, spec JobSpec) string {
	tb.Helper()
	id, err := s.store.SaveGraph(g)
	if err != nil {
		tb.Fatal(err)
	}
	spec.GraphID = id
	blob, err := json.Marshal(spec)
	if err != nil {
		tb.Fatal(err)
	}
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, httptest.NewRequest("POST", "/v1/jobs", bytes.NewReader(blob)))
	var out struct {
		JobID string `json:"job_id"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &out); rec.Code != http.StatusAccepted || err != nil {
		tb.Fatalf("submit: HTTP %d %q", rec.Code, rec.Body.Bytes())
	}
	return out.JobID
}

// waitFor polls job id until cond holds for it.
func waitFor(tb testing.TB, s *Server, id string, cond func(*job) bool) {
	tb.Helper()
	deadline := time.Now().Add(time.Minute)
	for !cond(s.lookup(id)) {
		if time.Now().After(deadline) {
			tb.Fatalf("job %s: still %s after a minute", id, s.lookup(id).state())
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func terminal(j *job) bool { return j.state().Terminal() }

// writeLog records the length of every Write the results handler makes.
type writeLog struct {
	*httptest.ResponseRecorder
	writes []int
}

func (w *writeLog) Write(p []byte) (int, error) {
	w.writes = append(w.writes, len(p))
	return w.ResponseRecorder.Write(p)
}

// streamResults serves GET /v1/jobs/{id}/results into a writeLog.
func streamResults(s *Server, id string) *writeLog {
	w := &writeLog{ResponseRecorder: httptest.NewRecorder()}
	s.Handler().ServeHTTP(w, httptest.NewRequest("GET", "/v1/jobs/"+id+"/results", nil))
	return w
}

// referenceStream is the NDJSON body json.Encoder writes for the records
// mbe.ReadSpool replays from job id's spool.
func referenceStream(tb testing.TB, s *Server, id string) []byte {
	tb.Helper()
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	if _, err := mbe.ReadSpool(s.store.SpoolDir(id), func(L, R []int32) {
		_ = enc.Encode(resultRecord{L, R}) // int32 slices into a bytes.Buffer cannot fail
	}); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

// failingWriter is a client that has gone: every Write fails.
type failingWriter struct {
	header http.Header
	writes int
}

func (w *failingWriter) Header() http.Header { return w.header }
func (w *failingWriter) WriteHeader(int)     {}
func (w *failingWriter) Write([]byte) (int, error) {
	w.writes++
	return 0, errors.New("client gone")
}

func TestJobResultsStream(t *testing.T) {
	var log lockedBuffer
	s := newTestServer(t, Config{}, &log)
	id := submitJob(t, s, ygQuarter(), JobSpec{Algorithm: "AdaMBE", Threads: 1, Ordering: "rand", Seed: 5})
	waitFor(t, s, id, terminal)
	if st := s.lookup(id).state(); st != JobDone {
		t.Fatalf("job ended %s, want done", st)
	}

	t.Run("bytes", func(t *testing.T) {
		w := streamResults(s, id)
		want := referenceStream(t, s, id)
		if !bytes.Equal(w.Body.Bytes(), want) {
			t.Fatalf("streamed %d bytes, json.Encoder reference %d: bodies differ", w.Body.Len(), len(want))
		}
		if h := w.Header().Get("X-MBE-Partial"); h != "" {
			t.Errorf("done job streamed with X-MBE-Partial=%q", h)
		}
		// Every Write but the last carries at least resultWriteBytes.
		full := 0
		for i, n := range w.writes {
			if n >= resultWriteBytes {
				full++
			} else if i != len(w.writes)-1 {
				t.Fatalf("write %d of %d carried %d bytes", i+1, len(w.writes), n)
			}
		}
		if full < 3 {
			t.Errorf("stream of %d bytes made %d full writes, want at least 3", len(want), full)
		}
	})

	t.Run("client gone", func(t *testing.T) {
		w := &failingWriter{header: http.Header{}}
		s.Handler().ServeHTTP(w, httptest.NewRequest("GET", "/v1/jobs/"+id+"/results", nil))
		if w.writes != 1 {
			t.Errorf("handler made %d writes to a client whose first write failed, want 1", w.writes)
		}
		if strings.Contains(log.String(), "result_stream_error") {
			t.Errorf("a client that went away was logged as a stream error:\n%s", log.String())
		}
	})
}

func TestJobResultsPartialStream(t *testing.T) {
	s := newTestServer(t, Config{CheckpointEvery: 5 * time.Millisecond}, nil)
	id := submitJob(t, s, mbe.GenerateUniform(1, 600, 300, 18000), JobSpec{Threads: 1})
	// Cancel once the run has found 20,000 of its 177,356 bicliques, so
	// the partial stream spans several writes.
	waitFor(t, s, id, func(j *job) bool {
		snap := j.snapshot()
		return j.state().Terminal() || snap != nil && snap.Bicliques >= 20000
	})
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, httptest.NewRequest("POST", "/v1/jobs/"+id+"/cancel", nil))
	waitFor(t, s, id, terminal)
	if st := s.lookup(id).state(); st != JobCanceled {
		t.Fatalf("job ended %s, want canceled", st)
	}

	w := streamResults(s, id)
	if h := w.Header().Get("X-MBE-Partial"); h != "true" {
		t.Errorf("canceled job streamed with X-MBE-Partial=%q, want true", h)
	}
	want := referenceStream(t, s, id)
	if len(want) < 2*resultWriteBytes {
		t.Fatalf("canceled job kept %d bytes of results, want several writes' worth", len(want))
	}
	if !bytes.Equal(w.Body.Bytes(), want) {
		t.Fatalf("streamed %d bytes, json.Encoder reference %d: bodies differ", w.Body.Len(), len(want))
	}
}

// BenchmarkJobResults streams one done job's results through the
// daemon's handler: serial AdaMBE under a random ordering on a graph
// with e2ebench's YG-like parameters (55,629 bicliques), as in the
// mbed-affil-jobs workload.
func BenchmarkJobResults(b *testing.B) {
	s := newTestServer(b, Config{}, nil)
	g := mbe.GenerateAffiliation(1, mbe.AffiliationConfig{
		NU: 16000, NV: 5000, Communities: 2600, MeanU: 12, MeanV: 4, Density: 0.85, NoiseEdges: 9000,
	}).Orient()
	id := submitJob(b, s, g, JobSpec{Algorithm: "AdaMBE", Threads: 1, Ordering: "rand", Seed: 1})
	waitFor(b, s, id, terminal)
	if st := s.lookup(id).state(); st != JobDone {
		b.Fatalf("job ended %s, want done", st)
	}
	h := s.Handler()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("GET", "/v1/jobs/"+id+"/results", nil))
		if rec.Code != http.StatusOK || rec.Body.Len() == 0 {
			b.Fatalf("results: HTTP %d, %d bytes", rec.Code, rec.Body.Len())
		}
	}
}
