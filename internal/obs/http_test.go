package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"testing"
)

func getJSON(t *testing.T, url string, out any) int {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if out != nil {
		if err := json.Unmarshal(body, out); err != nil {
			t.Fatalf("bad JSON from %s: %v\n%s", url, err, body)
		}
	}
	return resp.StatusCode
}

func TestServeDebugProgress(t *testing.T) {
	addr, shutdown, err := ServeDebug("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer shutdown()
	base := fmt.Sprintf("http://%s", addr)

	// No run published: 404 with a JSON body pollers can retry on.
	var idle struct {
		Active bool `json:"active"`
	}
	if code := getJSON(t, base+"/debug/progress", &idle); code != http.StatusNotFound {
		t.Fatalf("idle /debug/progress = %d, want 404", code)
	}

	r := NewRecorder(RunInfo{Algorithm: "ParAdaMBE", Dataset: "http", Threads: 2})
	r.RunBegin(RunConfig{Workers: 2, Frontier: 50})
	r.Worker(0).Publish(&Counters{NodesLN: 1, Bicliques: 1})
	Publish(r)
	defer Unpublish(r)

	var snap Snapshot
	if code := getJSON(t, base+"/debug/progress", &snap); code != http.StatusOK {
		t.Fatalf("live /debug/progress = %d, want 200", code)
	}
	if snap.RunID != r.RunID() || snap.Nodes != 1 || snap.Bicliques != 1 {
		t.Fatalf("live snapshot = %+v", snap)
	}
	if len(snap.Workers) != 2 {
		t.Fatalf("worker rows = %d, want 2", len(snap.Workers))
	}

	// expvar carries the same snapshot under mbe.progress.
	var vars struct {
		Progress *Snapshot `json:"mbe.progress"`
	}
	if code := getJSON(t, base+"/debug/vars", &vars); code != http.StatusOK {
		t.Fatalf("/debug/vars = %d, want 200", code)
	}
	if vars.Progress == nil || vars.Progress.RunID != r.RunID() {
		t.Fatalf("expvar mbe.progress = %+v", vars.Progress)
	}

	// pprof index must be mounted.
	resp, err := http.Get(base + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/debug/pprof/ = %d, want 200", resp.StatusCode)
	}
}

// TestServeDebugShutdownDrains pins the graceful-shutdown contract: an
// in-flight request is allowed to complete (bounded drain, not an abrupt
// connection reset), and after shutdown returns the listener is gone.
func TestServeDebugShutdownDrains(t *testing.T) {
	addr, shutdown, err := ServeDebug("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	base := fmt.Sprintf("http://%s", addr)

	// Park a request inside a handler when shutdown fires: /debug/progress
	// responds fast, so gate on entry instead via a slow body read — start
	// the request, then shut down while its response is still streaming.
	started := make(chan struct{})
	result := make(chan error, 1)
	go func() {
		resp, err := http.Get(base + "/debug/progress")
		if err != nil {
			close(started)
			result <- err
			return
		}
		close(started)
		_, err = io.ReadAll(resp.Body)
		resp.Body.Close()
		result <- err
	}()
	<-started
	shutdown() // must drain the in-flight request, then close

	if err := <-result; err != nil {
		t.Fatalf("in-flight request failed across shutdown: %v", err)
	}
	// The listener must be gone: a fresh connection is refused.
	if _, err := net.Dial("tcp", addr); err == nil {
		t.Fatal("listener still accepting connections after shutdown")
	}
}

func TestPublishNewerWins(t *testing.T) {
	a := NewRecorder(RunInfo{Dataset: "a"})
	b := NewRecorder(RunInfo{Dataset: "b"})
	Publish(a)
	Publish(b)
	Unpublish(a) // stale unpublish must not retire b
	if Active() != b {
		t.Fatal("stale Unpublish retired the newer run")
	}
	Unpublish(b)
	if Active() != nil {
		t.Fatal("Unpublish did not clear the active run")
	}
}
