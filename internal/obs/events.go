package obs

import (
	"bufio"
	"encoding/json"
	"io"
	"sync"
)

// Event is one structured observability record. Events form a single flat
// schema so a JSONL log is trivially greppable and decodable without
// type-dispatch; fields irrelevant to an event type are omitted. Types:
//
//	run_start    — sampler attached: static run info (algorithm, dataset,
//	               threads, graph shape), wall-clock Time.
//	sample       — periodic progress: the full Snapshot plus derived
//	               throughput (nodes/s, bicliques/s over the last window)
//	               and the root-frontier ETA.
//	phase        — the run phase changed ("load" → "enumerate" → "done").
//	worker_stall — a worker reported busy made no counter progress for
//	               StallAfter consecutive samples.
//	run_end      — sampler detached: final totals and stop reason.
type Event struct {
	Type string `json:"type"`
	Run  string `json:"run,omitempty"`
	// Time is the wall-clock RFC3339 stamp (run_start/run_end only); TMS is
	// milliseconds since the recorder was created (every event).
	Time string  `json:"time,omitempty"`
	TMS  float64 `json:"t_ms"`

	// run_start payload.
	Algorithm string `json:"algorithm,omitempty"`
	Dataset   string `json:"dataset,omitempty"`
	Threads   int    `json:"threads,omitempty"`
	NU        int    `json:"nu,omitempty"`
	NV        int    `json:"nv,omitempty"`
	Edges     int64  `json:"edges,omitempty"`

	// phase payload (also set on run_start/run_end).
	Phase     string `json:"phase,omitempty"`
	PrevPhase string `json:"prev_phase,omitempty"`

	// sample payload.
	Snap            *Snapshot `json:"snap,omitempty"`
	NodesPerSec     float64   `json:"nodes_per_s,omitempty"`
	BicliquesPerSec float64   `json:"bicliques_per_s,omitempty"`
	// EtaMS estimates remaining run time from the root-frontier fraction;
	// absent until the frontier has moved. The enumeration tree is skewed,
	// so this is an order-of-magnitude progress signal, not a promise.
	EtaMS float64 `json:"eta_ms,omitempty"`

	// worker_stall payload.
	Worker    *int    `json:"worker,omitempty"`
	State     string  `json:"state,omitempty"`
	StalledMS float64 `json:"stalled_ms,omitempty"`

	// run_end payload.
	Nodes      int64  `json:"nodes,omitempty"`
	Bicliques  int64  `json:"bicliques,omitempty"`
	StopReason string `json:"stop_reason,omitempty"`
}

// Sink receives observability events. Implementations must be safe for
// concurrent use; the sampler serializes its own emissions but multiple
// samplers may share one sink.
type Sink interface {
	Emit(Event)
}

// JSONLSink writes one JSON object per line. Writes are serialized; the
// first write error is retained (and further events dropped) rather than
// failing the enumeration it observes.
type JSONLSink struct {
	mu  sync.Mutex
	w   *bufio.Writer
	err error
}

// NewJSONLSink wraps w in a buffered JSONL event writer. Call Flush (or
// Close on the underlying file) when the run ends.
func NewJSONLSink(w io.Writer) *JSONLSink {
	return &JSONLSink{w: bufio.NewWriter(w)}
}

// Emit writes e as one JSON line.
func (s *JSONLSink) Emit(e Event) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.err != nil {
		return
	}
	data, err := json.Marshal(e)
	if err != nil {
		s.err = err
		return
	}
	data = append(data, '\n')
	if _, err := s.w.Write(data); err != nil {
		s.err = err
	}
}

// Flush drains the buffer and returns the first error seen.
func (s *JSONLSink) Flush() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.err != nil {
		return s.err
	}
	s.err = s.w.Flush()
	return s.err
}

// ReadEvents decodes a JSONL event log (as written by JSONLSink). Blank
// lines are skipped; a malformed line aborts with an error so truncated
// logs are noticed rather than silently half-read.
func ReadEvents(r io.Reader) ([]Event, error) {
	var out []Event
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<24)
	for sc.Scan() {
		line := sc.Bytes()
		if len(line) == 0 {
			continue
		}
		var e Event
		if err := json.Unmarshal(line, &e); err != nil {
			return out, err
		}
		out = append(out, e)
	}
	return out, sc.Err()
}
