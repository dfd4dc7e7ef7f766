package obs

import (
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"testing"
)

// TestHistogramBucketBoundaries pins the le-inclusive bucket contract
// the same way internal/core's histBucket tests do: a value exactly on
// a bound lands in that bound's bucket, one ulp above spills into the
// next, and anything past the last bound lands in +Inf.
func TestHistogramBucketBoundaries(t *testing.T) {
	h := newHistogram([]float64{1, 10, 100})
	for _, tc := range []struct {
		v    float64
		want int
	}{
		{0, 0}, {0.5, 0}, {1, 0}, // le="1" is inclusive
		{1.0001, 1}, {10, 1},
		{10.5, 2}, {100, 2},
		{100.5, 3}, {1e9, 3}, // +Inf
	} {
		if got := h.bucketIndex(tc.v); got != tc.want {
			t.Errorf("bucketIndex(%g) = %d, want %d", tc.v, got, tc.want)
		}
	}

	for _, v := range []float64{1, 10, 100, 101} {
		h.Observe(v)
	}
	if got := h.Count(); got != 4 {
		t.Fatalf("Count = %d, want 4", got)
	}
	if got, want := h.Sum(), 212.0; got != want {
		t.Fatalf("Sum = %g, want %g", got, want)
	}
	for i, want := range []int64{1, 1, 1, 1} {
		if got := h.counts[i].Load(); got != want {
			t.Errorf("bucket %d holds %d, want %d", i, got, want)
		}
	}
}

// TestHistogramConcurrentObserve hammers one histogram from many
// goroutines: the total count must be exact (each observation is one
// atomic add — none may be lost).
func TestHistogramConcurrentObserve(t *testing.T) {
	h := newHistogram([]float64{0.5})
	const workers, per = 8, 10000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				// 0.75 is exactly representable, so the CAS-summed total
				// is exact regardless of accumulation order.
				h.Observe(float64(i%2) * 0.75)
			}
		}(w)
	}
	wg.Wait()
	if got := h.Count(); got != workers*per {
		t.Fatalf("Count = %d, want %d", got, workers*per)
	}
	if got, want := h.Sum(), float64(workers*per/2)*0.75; got != want {
		t.Fatalf("Sum = %g, want %g", got, want)
	}
}

// TestRegistryExposition renders one of each metric kind and checks the
// Prometheus text format line by line.
func TestRegistryExposition(t *testing.T) {
	reg := NewRegistry()
	reg.NewCounter("jobs_total", "total jobs").Add(3)
	reg.NewCounterVec("requests_total", "requests by route", "route", "code").
		With("/v1/jobs", "202").Add(2)
	reg.NewGaugeFunc("active", "active jobs", func() int64 { return 5 })
	h := reg.NewHistogram("latency_seconds", "request latency", []float64{0.1, 1})
	h.Observe(0.05)
	h.Observe(0.5)
	h.Observe(3)

	var b strings.Builder
	reg.WritePrometheus(&b)
	out := b.String()
	for _, want := range []string{
		"# TYPE jobs_total counter",
		"jobs_total 3",
		`requests_total{route="/v1/jobs",code="202"} 2`,
		"# TYPE active gauge",
		"active 5",
		"# TYPE latency_seconds histogram",
		`latency_seconds_bucket{le="0.1"} 1`,
		`latency_seconds_bucket{le="1"} 2`,
		`latency_seconds_bucket{le="+Inf"} 3`,
		"latency_seconds_sum 3.55",
		"latency_seconds_count 3",
	} {
		if !strings.Contains(out, want+"\n") {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
}

// TestRegistryIdempotentRegistration: registering the same name again
// returns the same metric — the property that lets a relaunched server
// re-run its registration path without a duplicate panic.
func TestRegistryIdempotentRegistration(t *testing.T) {
	reg := NewRegistry()
	a := reg.NewCounter("c", "help")
	b := reg.NewCounter("c", "help")
	if a != b {
		t.Error("NewCounter twice returned distinct counters")
	}
	a.Inc()
	if b.Value() != 1 {
		t.Error("re-registered counter does not share state")
	}
	h1 := reg.NewHistogram("h", "help", nil)
	h2 := reg.NewHistogram("h", "help", nil)
	if h1 != h2 {
		t.Error("NewHistogram twice returned distinct histograms")
	}

	defer func() {
		if recover() == nil {
			t.Error("kind-mismatched re-registration did not panic")
		}
	}()
	reg.NewGaugeFunc("c", "now a gauge", func() int64 { return 0 })
}

// TestDebugServerRestartIdempotent relaunches the debug server the way
// mbed does after SIGTERM-then-restart in tests: both generations must
// serve /debug/vars and /debug/pprof/ without a duplicate-registration
// panic (expvar.Publish would panic; the Once guard and per-call mux
// must absorb it). The debug mux serves no /metrics: only mbed and
// mbecoord have a registry to expose.
func TestDebugServerRestartIdempotent(t *testing.T) {
	for gen := 0; gen < 2; gen++ {
		addr, shutdown, err := ServeDebug("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		for path, want := range map[string]int{
			"/debug/vars":   http.StatusOK,
			"/debug/pprof/": http.StatusOK,
			"/metrics":      http.StatusNotFound,
		} {
			resp, err := http.Get("http://" + addr + path)
			if err != nil {
				t.Fatalf("gen %d: GET %s: %v", gen, path, err)
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode != want {
				t.Errorf("gen %d: GET %s = %d, want %d", gen, path, resp.StatusCode, want)
			}
		}
		shutdown()
	}
}

// TestCounterVecConcurrent exercises the lazy child creation path under
// contention: every goroutine must land on the same child.
func TestCounterVecConcurrent(t *testing.T) {
	reg := NewRegistry()
	vec := reg.NewCounterVec("v", "help", "k")
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				vec.With(fmt.Sprint(j % 4)).Inc()
			}
		}()
	}
	wg.Wait()
	var total int64
	for j := 0; j < 4; j++ {
		total += vec.With(fmt.Sprint(j)).Value()
	}
	if total != 8000 {
		t.Fatalf("vec total = %d, want 8000", total)
	}
}
