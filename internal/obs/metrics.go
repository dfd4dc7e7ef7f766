package obs

import (
	"fmt"
	"io"
	"math"
	"net/http"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// This file is the service-metrics half of the package: a small,
// stdlib-only metrics registry (counters, scrape-time gauges,
// fixed-bucket histograms) exposed in the Prometheus text exposition format. It is
// the aggregate complement of the per-run Recorder above — a Recorder
// describes one enumeration in flight, the Registry describes a process
// serving many of them (the mbed daemon's /metrics endpoint).
//
// Design constraints:
//
//   - Hot-path updates are lock-free: a counter is one atomic add; a
//     gauge is read from its callback at scrape time; a histogram observation is one binary search over a
//     small fixed bound slice plus one atomic add (and a CAS loop for
//     the running sum). No allocation after registration.
//   - Registration is idempotent: registering a name twice returns the
//     existing metric, so a daemon that tears its debug server down on
//     SIGTERM and relaunches it cannot hit a duplicate-registration
//     panic the way expvar.Publish would.

// A Registry holds a server's metric families and renders them as
// Prometheus text exposition. Create one per server (tests run many
// servers per process): mbed and mbecoord each serve theirs at /metrics.
type Registry struct {
	mu       sync.Mutex
	families []*family
	byName   map[string]*family
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{byName: make(map[string]*family)}
}

type familyKind int

const (
	kindCounter familyKind = iota
	kindGauge
	kindHistogram
)

func (k familyKind) String() string {
	switch k {
	case kindCounter:
		return "counter"
	case kindGauge:
		return "gauge"
	default:
		return "histogram"
	}
}

// family is one named metric family: an unlabeled singleton or a set of
// labeled children, rendered together under one HELP/TYPE header.
type family struct {
	name   string
	help   string
	kind   familyKind
	labels []string

	mu       sync.RWMutex
	children map[string]child // label-value key -> child
	order    []string         // insertion order of keys, for stable output
	single   child            // the unlabeled child (len(labels) == 0)
}

// child is the value slot a family variant points at.
type child interface {
	write(w io.Writer, fam *family, labelPairs string)
}

// register returns the family for name, creating it on first use.
// Re-registering an existing name with the same kind and label arity is
// an idempotent no-op returning the existing family; a kind or label
// mismatch is a programming error worth failing loudly over.
func (g *Registry) register(name, help string, kind familyKind, labels []string) *family {
	g.mu.Lock()
	defer g.mu.Unlock()
	if f, ok := g.byName[name]; ok {
		if f.kind != kind || len(f.labels) != len(labels) {
			panic(fmt.Sprintf("obs: metric %q re-registered as %s with %d labels (was %s with %d)",
				name, kind, len(labels), f.kind, len(f.labels)))
		}
		return f
	}
	f := &family{name: name, help: help, kind: kind, labels: labels,
		children: make(map[string]child)}
	g.byName[name] = f
	g.families = append(g.families, f)
	return f
}

// --- counters --------------------------------------------------------

// Counter is a monotone event count.
type Counter struct {
	v atomic.Int64
}

// Inc adds 1.
func (c *Counter) Inc() { c.Add(1) }

// Add adds n (n must be >= 0 to keep the counter monotone).
func (c *Counter) Add(n int64) {
	if c != nil && n > 0 {
		c.v.Add(n)
	}
}

// Value returns the current count.
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

func (c *Counter) write(w io.Writer, fam *family, labelPairs string) {
	fmt.Fprintf(w, "%s%s %d\n", fam.name, labelPairs, c.Value())
}

// NewCounter registers (or returns the existing) unlabeled counter.
func (g *Registry) NewCounter(name, help string) *Counter {
	f := g.register(name, help, kindCounter, nil)
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.single == nil {
		f.single = &Counter{}
	}
	return f.single.(*Counter)
}

// CounterVec is a counter family keyed by label values.
type CounterVec struct{ f *family }

// NewCounterVec registers (or returns the existing) labeled counter
// family.
func (g *Registry) NewCounterVec(name, help string, labels ...string) *CounterVec {
	return &CounterVec{f: g.register(name, help, kindCounter, labels)}
}

// With returns the counter for the given label values (created on first
// use), in the order the labels were declared.
func (v *CounterVec) With(values ...string) *Counter {
	return v.f.child(values, func() child { return &Counter{} }).(*Counter)
}

// --- gauges ----------------------------------------------------------

// gaugeFunc samples a callback at exposition time — for values some
// other subsystem already tracks (admission load, say), so a gauge can
// never drift from its source.
type gaugeFunc struct{ fn func() int64 }

func (g gaugeFunc) write(w io.Writer, fam *family, labelPairs string) {
	fmt.Fprintf(w, "%s%s %d\n", fam.name, labelPairs, g.fn())
}

// NewGaugeFunc registers a gauge whose value is read from fn at scrape
// time. fn must be safe to call from any goroutine. Re-registering the
// same name replaces the callback (the restart-idempotency contract:
// a relaunched server re-binds its fresh state).
func (g *Registry) NewGaugeFunc(name, help string, fn func() int64) {
	f := g.register(name, help, kindGauge, nil)
	f.mu.Lock()
	defer f.mu.Unlock()
	f.single = gaugeFunc{fn: fn}
}

// --- histograms ------------------------------------------------------

// DefLatencyBuckets is the default request/job latency layout, in
// seconds: exponential from 5 ms to ~2 min, wide enough for both a
// status read and a multi-attempt enumeration job.
var DefLatencyBuckets = []float64{
	0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10, 30, 60, 120,
}

// Histogram is a fixed-bucket histogram with lock-free observation.
// Bounds are inclusive upper bounds (Prometheus `le` semantics); an
// implicit +Inf bucket catches everything above the last bound.
type Histogram struct {
	bounds  []float64
	counts  []atomic.Int64 // len(bounds)+1; last = +Inf
	sumBits atomic.Uint64  // float64 bits of the running sum
}

func newHistogram(bounds []float64) *Histogram {
	if len(bounds) == 0 {
		bounds = DefLatencyBuckets
	}
	if !sort.Float64sAreSorted(bounds) {
		panic("obs: histogram bounds must be sorted ascending")
	}
	b := make([]float64, len(bounds))
	copy(b, bounds)
	return &Histogram{bounds: b, counts: make([]atomic.Int64, len(b)+1)}
}

// NewHistogram registers (or returns the existing) unlabeled histogram.
// nil bounds select DefLatencyBuckets.
func (g *Registry) NewHistogram(name, help string, bounds []float64) *Histogram {
	f := g.register(name, help, kindHistogram, nil)
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.single == nil {
		f.single = newHistogram(bounds)
	}
	return f.single.(*Histogram)
}

// HistogramVec is a histogram family keyed by label values; every child
// shares the same bucket layout, which is what makes children (and
// scrapes of restarted shards) mergeable.
type HistogramVec struct {
	f      *family
	bounds []float64
}

// NewHistogramVec registers (or returns the existing) labeled histogram
// family. nil bounds select DefLatencyBuckets.
func (g *Registry) NewHistogramVec(name, help string, bounds []float64, labels ...string) *HistogramVec {
	return &HistogramVec{f: g.register(name, help, kindHistogram, labels), bounds: bounds}
}

// With returns the histogram for the given label values.
func (v *HistogramVec) With(values ...string) *Histogram {
	return v.f.child(values, func() child { return newHistogram(v.bounds) }).(*Histogram)
}

// bucketIndex returns the index of the bucket v falls in: the first
// bound >= v (le-inclusive), or the +Inf slot.
func (h *Histogram) bucketIndex(v float64) int {
	return sort.SearchFloat64s(h.bounds, v)
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	h.counts[h.bucketIndex(v)].Add(1)
	for {
		old := h.sumBits.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sumBits.CompareAndSwap(old, next) {
			return
		}
	}
}

// ObserveDuration records d in seconds.
func (h *Histogram) ObserveDuration(d time.Duration) { h.Observe(d.Seconds()) }

// Count returns the total number of observations.
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	var n int64
	for i := range h.counts {
		n += h.counts[i].Load()
	}
	return n
}

// Sum returns the sum of observed values.
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return math.Float64frombits(h.sumBits.Load())
}

func (h *Histogram) write(w io.Writer, fam *family, labelPairs string) {
	// Per Prometheus text exposition: cumulative le buckets, then _sum
	// and _count. The label set gains `le` inside the existing braces.
	var cum int64
	for i, b := range h.bounds {
		cum += h.counts[i].Load()
		fmt.Fprintf(w, "%s_bucket%s %d\n", fam.name, addLabel(labelPairs, "le", formatFloat(b)), cum)
	}
	cum += h.counts[len(h.bounds)].Load()
	fmt.Fprintf(w, "%s_bucket%s %d\n", fam.name, addLabel(labelPairs, "le", "+Inf"), cum)
	fmt.Fprintf(w, "%s_sum%s %s\n", fam.name, labelPairs, formatFloat(h.Sum()))
	fmt.Fprintf(w, "%s_count%s %d\n", fam.name, labelPairs, cum)
}

// --- family plumbing -------------------------------------------------

// vecKeySep separates label values in the child-map key; label values
// containing it are escaped at render time anyway, and the separator
// cannot produce key collisions for printable values.
const vecKeySep = "\x1f"

func (f *family) child(values []string, make func() child) child {
	if len(values) != len(f.labels) {
		panic(fmt.Sprintf("obs: metric %q takes %d label values, got %d", f.name, len(f.labels), len(values)))
	}
	key := strings.Join(values, vecKeySep)
	f.mu.RLock()
	c, ok := f.children[key]
	f.mu.RUnlock()
	if ok {
		return c
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if c, ok := f.children[key]; ok {
		return c
	}
	c = make()
	f.children[key] = c
	f.order = append(f.order, key)
	return c
}

// labelPairs renders a child's key as {k="v",...}; empty for the
// unlabeled singleton.
func (f *family) labelPairs(key string) string {
	if len(f.labels) == 0 {
		return ""
	}
	values := strings.Split(key, vecKeySep)
	var b strings.Builder
	b.WriteByte('{')
	for i, l := range f.labels {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, `%s="%s"`, l, escapeLabel(values[i]))
	}
	b.WriteByte('}')
	return b.String()
}

// addLabel inserts one more k="v" pair into an existing (possibly
// empty) label-pairs string.
func addLabel(pairs, k, v string) string {
	kv := fmt.Sprintf(`%s="%s"`, k, escapeLabel(v))
	if pairs == "" {
		return "{" + kv + "}"
	}
	return pairs[:len(pairs)-1] + "," + kv + "}"
}

func escapeLabel(v string) string {
	v = strings.ReplaceAll(v, `\`, `\\`)
	v = strings.ReplaceAll(v, "\n", `\n`)
	return strings.ReplaceAll(v, `"`, `\"`)
}

// formatFloat renders a float the way Prometheus expects (no exponent
// for typical values, no trailing zeros).
func formatFloat(f float64) string {
	switch {
	case math.IsInf(f, 1):
		return "+Inf"
	case math.IsInf(f, -1):
		return "-Inf"
	}
	return strings.TrimRight(strings.TrimRight(fmt.Sprintf("%.9f", f), "0"), ".")
}

// WritePrometheus renders every family in registration order.
func (g *Registry) WritePrometheus(w io.Writer) {
	g.mu.Lock()
	fams := make([]*family, len(g.families))
	copy(fams, g.families)
	g.mu.Unlock()
	for _, f := range fams {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n", f.name, f.help, f.name, f.kind)
		f.mu.RLock()
		if f.single != nil {
			f.single.write(w, f, "")
		}
		for _, key := range f.order {
			f.children[key].write(w, f, f.labelPairs(key))
		}
		f.mu.RUnlock()
	}
}

// Handler serves the registry as Prometheus text exposition
// (content-type version 0.0.4), the GET /metrics endpoint.
func (g *Registry) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		g.WritePrometheus(w)
	})
}
