package main

import (
	"encoding/json"
	"os"
	"sort"
	"strings"
	"sync"
	"time"
)

// tracer keeps the spans of a traced run in memory; write dumps them at
// the end. Spans are recorded by the benchmark around its calls into each
// layer's public functions, never inside the program. A nil tracer
// records nothing.
type tracer struct {
	t0 time.Time

	mu     sync.Mutex
	nextID int64
	spans  []span
}

// span is one recorded interval. Spans of one op share Op; a root span
// has Parent 0.
type span struct {
	ID      int64  `json:"id"`
	Parent  int64  `json:"parent"`
	Op      int64  `json:"op"`
	Name    string `json:"name"`
	StartUS int64  `json:"start_us"`
	EndUS   int64  `json:"end_us"`
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// openSpan is a span in progress. The zero value, which a nil tracer
// hands out, records nothing, and so do its children.
type openSpan struct {
	t      *tracer
	id     int64
	op     int64
	parent int64
	name   string
	start  time.Time
}

func (t *tracer) newID() int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.nextID++
	return t.nextID
}

// root opens the root span of a new op (or set-up).
func (t *tracer) root(name string) openSpan {
	if t == nil {
		return openSpan{}
	}
	id := t.newID()
	return openSpan{t: t, id: id, op: id, name: name, start: time.Now()}
}

// child opens a span under s.
func (s openSpan) child(name string) openSpan {
	if s.t == nil {
		return openSpan{}
	}
	return openSpan{t: s.t, id: s.t.newID(), op: s.op, parent: s.id, name: name, start: time.Now()}
}

// end closes the span now.
func (s openSpan) end() { s.endAt(time.Now()) }

// endAt closes the span at a given time.
func (s openSpan) endAt(at time.Time) {
	if s.t == nil {
		return
	}
	s.t.mu.Lock()
	defer s.t.mu.Unlock()
	s.t.spans = append(s.t.spans, span{
		ID: s.id, Parent: s.parent, Op: s.op, Name: s.name,
		StartUS: s.start.Sub(s.t.t0).Microseconds(),
		EndUS:   at.Sub(s.t.t0).Microseconds(),
	})
}

// record adds a finished child span of s with explicit bounds, for
// intervals observed by another goroutine.
func (s openSpan) record(name string, start, end time.Time) {
	if s.t == nil {
		return
	}
	c := openSpan{t: s.t, id: s.t.newID(), op: s.op, parent: s.id, name: name, start: start}
	c.endAt(end)
}

// layer maps a span name to its layer: the prefix before the first dot,
// with the root spans ("op", "setup") belonging to the benchmark itself.
func layer(name string) string {
	if i := strings.IndexByte(name, '.'); i > 0 {
		return name[:i]
	}
	return "bench"
}

// selfTimes sums, per layer, the self time of every span under a root
// named rootName: the span's duration minus the part of it its children
// cover. It also returns how many such roots there were.
func (t *tracer) selfTimes(rootName string) (map[string]time.Duration, int) {
	if t == nil {
		return nil, 0
	}
	t.mu.Lock()
	spans := append([]span(nil), t.spans...)
	t.mu.Unlock()

	roots := map[int64]bool{}
	children := map[int64][]span{}
	for _, s := range spans {
		if s.Parent == 0 && s.Name == rootName {
			roots[s.Op] = true
		}
		children[s.Parent] = append(children[s.Parent], s)
	}
	out := map[string]time.Duration{}
	for _, s := range spans {
		if !roots[s.Op] {
			continue
		}
		self := s.EndUS - s.StartUS - coveredUS(s, children[s.ID])
		out[layer(s.Name)] += time.Duration(self) * time.Microsecond
	}
	return out, len(roots)
}

// coveredUS is the length of the union of the children's intervals,
// clipped to the parent's.
func coveredUS(parent span, kids []span) int64 {
	type iv struct{ a, b int64 }
	ivs := make([]iv, 0, len(kids))
	for _, k := range kids {
		a, b := max(k.StartUS, parent.StartUS), min(k.EndUS, parent.EndUS)
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var total, curA, curB int64
	open := false
	for _, v := range ivs {
		switch {
		case !open:
			curA, curB, open = v.a, v.b, true
		case v.a <= curB:
			curB = max(curB, v.b)
		default:
			total += curB - curA
			curA, curB = v.a, v.b
		}
	}
	if open {
		total += curB - curA
	}
	return total
}

// write dumps every span as a JSON array to path.
func (t *tracer) write(path string) error {
	t.mu.Lock()
	data, err := json.Marshal(t.spans)
	t.mu.Unlock()
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
