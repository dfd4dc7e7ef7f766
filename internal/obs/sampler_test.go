package obs

import (
	"bytes"
	"strings"
	"sync"
	"testing"
	"time"
)

// collectSink is a thread-safe in-memory Sink for tests.
type collectSink struct {
	mu     sync.Mutex
	events []Event
}

func (c *collectSink) Emit(e Event) {
	c.mu.Lock()
	c.events = append(c.events, e)
	c.mu.Unlock()
}

func (c *collectSink) all() []Event {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]Event(nil), c.events...)
}

func (c *collectSink) byType(typ string) []Event {
	var out []Event
	for _, e := range c.all() {
		if e.Type == typ {
			out = append(out, e)
		}
	}
	return out
}

func TestSamplerEventSequence(t *testing.T) {
	r := NewRecorder(RunInfo{Algorithm: "AdaMBE", Dataset: "unit", Threads: 1, NV: 100})
	sink := &collectSink{}
	stop := StartSampler(r, SamplerOptions{Interval: 2 * time.Millisecond, Sink: sink})

	r.RunBegin(RunConfig{Workers: 1, Frontier: 100})
	p := r.Worker(0)
	var c Counters
	for i := 0; i < 40; i++ {
		c.NodesLN++
		c.Bicliques++
		c.Root = int64(i) + 1
		p.Publish(&c)
		time.Sleep(500 * time.Microsecond)
	}
	r.Finish("none")
	stop()
	stop() // idempotent

	events := sink.all()
	if len(events) < 3 {
		t.Fatalf("too few events: %d", len(events))
	}
	if events[0].Type != "run_start" {
		t.Fatalf("first event = %q, want run_start", events[0].Type)
	}
	if events[0].Algorithm != "AdaMBE" || events[0].Dataset != "unit" || events[0].NV != 100 {
		t.Fatalf("run_start payload wrong: %+v", events[0])
	}
	last := events[len(events)-1]
	if last.Type != "run_end" {
		t.Fatalf("last event = %q, want run_end", last.Type)
	}
	if last.StopReason != "none" || last.Nodes != 40 || last.Bicliques != 40 {
		t.Fatalf("run_end payload wrong: %+v", last)
	}

	samples := sink.byType("sample")
	if len(samples) == 0 {
		t.Fatal("no sample events emitted")
	}
	var prev int64 = -1
	for _, s := range samples {
		if s.Snap == nil {
			t.Fatal("sample without snapshot")
		}
		if s.Snap.Nodes < prev {
			t.Fatalf("sample nodes regressed: %d -> %d", prev, s.Snap.Nodes)
		}
		prev = s.Snap.Nodes
		if s.Run != r.RunID() {
			t.Fatalf("sample run id = %q, want %q", s.Run, r.RunID())
		}
	}

	// Phase transitions setup -> enumerate -> done must each appear.
	var seen []string
	for _, e := range sink.byType("phase") {
		seen = append(seen, e.PrevPhase+">"+e.Phase)
	}
	joined := strings.Join(seen, " ")
	if !strings.Contains(joined, "setup>enumerate") || !strings.Contains(joined, "enumerate>done") {
		t.Fatalf("phase transitions = %v", seen)
	}
}

func TestSamplerThroughputAndETA(t *testing.T) {
	r := NewRecorder(RunInfo{NV: 10})
	sink := &collectSink{}
	// Long interval: only the final forced sample fires, with a known delta.
	stop := StartSampler(r, SamplerOptions{Interval: time.Hour, Sink: sink})
	r.RunBegin(RunConfig{Workers: 1, Frontier: 10})
	r.Worker(0).Publish(&Counters{NodesBit: 1000, Root: 5}) // RootDone 5 of 10
	time.Sleep(5 * time.Millisecond)
	stop()

	samples := sink.byType("sample")
	if len(samples) != 1 {
		t.Fatalf("samples = %d, want exactly the final one", len(samples))
	}
	s := samples[0]
	if s.NodesPerSec <= 0 {
		t.Fatalf("NodesPerSec = %v, want > 0", s.NodesPerSec)
	}
	// f = 0.5 -> eta == elapsed, modulo the time between snapshot and check.
	if s.EtaMS <= 0 {
		t.Fatalf("EtaMS = %v, want > 0 at half frontier", s.EtaMS)
	}
	if s.Snap.RootDone != 5 {
		t.Fatalf("RootDone = %d, want 5", s.Snap.RootDone)
	}
}

func TestSamplerStallDetection(t *testing.T) {
	r := NewRecorder(RunInfo{Threads: 2})
	sink := &collectSink{}
	r.RunBegin(RunConfig{Workers: 2, Frontier: 10})
	r.Worker(0).SetState(StateBusy) // busy forever, no progress
	r.Worker(1).SetState(StateParked)
	stop := StartSampler(r, SamplerOptions{Interval: time.Millisecond, Sink: sink, StallAfter: 3})
	deadline := time.Now().Add(2 * time.Second)
	for len(sink.byType("worker_stall")) == 0 && time.Now().Before(deadline) {
		time.Sleep(2 * time.Millisecond)
	}
	stop()

	stalls := sink.byType("worker_stall")
	if len(stalls) == 0 {
		t.Fatal("no worker_stall for a progress-free busy worker")
	}
	for _, e := range stalls {
		if e.Worker == nil || *e.Worker != 0 {
			t.Fatalf("stall attributed to wrong worker: %+v", e)
		}
		if e.StalledMS <= 0 {
			t.Fatalf("stall without duration: %+v", e)
		}
	}
}

func TestJSONLRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	sink := NewJSONLSink(&buf)
	w := 3
	in := []Event{
		{Type: "run_start", Run: "r1", Algorithm: "AdaMBE", Threads: 2},
		{Type: "sample", Run: "r1", TMS: 12.5, Snap: &Snapshot{RunID: "r1", Nodes: 7, Phase: "enumerate"}},
		{Type: "worker_stall", Run: "r1", Worker: &w, State: "busy", StalledMS: 5000},
		{Type: "run_end", Run: "r1", Nodes: 9, StopReason: "none"},
	}
	for _, e := range in {
		sink.Emit(e)
	}
	if err := sink.Flush(); err != nil {
		t.Fatal(err)
	}

	out, err := ReadEvents(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != len(in) {
		t.Fatalf("round-tripped %d events, want %d", len(out), len(in))
	}
	for i := range in {
		if out[i].Type != in[i].Type || out[i].Run != in[i].Run {
			t.Fatalf("event %d = %+v, want %+v", i, out[i], in[i])
		}
	}
	if out[1].Snap == nil || out[1].Snap.Nodes != 7 {
		t.Fatalf("snapshot payload lost: %+v", out[1])
	}
	if out[2].Worker == nil || *out[2].Worker != 3 {
		t.Fatalf("worker payload lost: %+v", out[2])
	}
}

func TestReadEventsRejectsGarbage(t *testing.T) {
	if _, err := ReadEvents(strings.NewReader("{\"type\":\"sample\"}\nnot json\n")); err == nil {
		t.Fatal("malformed line must error")
	}
}
