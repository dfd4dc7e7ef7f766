// Command e2ebench is the repository's end-to-end benchmark. For one
// workload it generates the input graphs from a seed, drives the system
// through one of its entry points — mbe.Enumerate in process, or the mbed
// daemon (internal/server) over loopback HTTP — checks every output
// digest against a serial reference run, and prints the metrics as the
// last line of standard output:
//
//	{"correct": true, "attempted": 57, "failed": 0, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end ones. With -trace 1 they
// are the per-layer ones, taken from spans recorded around the calls into
// each layer and from the layers' own counters; the traced run alternates
// traced and untraced ops so it can report the tracing overhead. The
// traced mbe-affil-par2 run also measures the third entry point, an
// internal/dist coordinator with two in-process workers over loopback
// HTTP, in side runs. See README.md for the workloads and the metric
// definitions.
//
// Run it through run.sh, which builds it from source first:
//
//	bash e2ebench/run.sh --workload mbe-affil-par2 --seed 1 --seconds 50 --trace 0
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"strings"
	"sync"
	"time"

	mbe "repro"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// config is one benchmark invocation.
type config struct {
	workload string
	seed     int64
	seconds  time.Duration
	trace    bool
	// outDir holds the run's scratch files (removed at the end) and, for a
	// traced run, the span dump.
	outDir string
	// tiny swaps every workload's graphs for small ones (the smoke test).
	tiny bool
	// corruptOp, when >= 0, perturbs the digest the client computes for
	// that op (numbered from 0 across the run), so the test can check that
	// a mismatch is counted as a failure.
	corruptOp int64
	log       io.Writer
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("e2ebench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	wl := fs.String("workload", "", "workload: "+strings.Join(names, "|")+"|all")
	seed := fs.Int64("seed", 1, "workload seed: the same seed gives the same inputs")
	seconds := fs.Float64("seconds", 50, "length of the measured phase in seconds")
	trace := fs.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a traced run")
	out := fs.String("out", ".bench_build", "directory for scratch files and span dumps")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintln(stderr, "e2ebench: -trace must be 0 or 1")
		return 2
	}
	cfg := config{
		workload: *wl, seed: *seed, seconds: time.Duration(*seconds * float64(time.Second)),
		trace: *trace == 1, outDir: *out, corruptOp: -1, log: stderr,
	}
	var res result
	var err error
	if *wl == "all" {
		res, err = runAll(cfg, stdout)
	} else {
		res, err = runWorkload(cfg, stdout)
	}
	if err != nil {
		fmt.Fprintln(stderr, "e2ebench:", err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "e2ebench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !res.Correct {
		fmt.Fprintf(stderr, "e2ebench: %d of %d ops failed\n", res.Failed, res.Attempted)
		return 1
	}
	return 0
}

// result is the final line of standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runAll runs every workload in turn; the metrics are keyed
// "<workload>/<metric>".
func runAll(cfg config, stdout io.Writer) (result, error) {
	all := result{Correct: true, Metrics: map[string]metricValue{}}
	for _, w := range workloads {
		c := cfg
		c.workload = w.name
		res, err := runWorkload(c, stdout)
		if err != nil {
			return all, fmt.Errorf("%s: %w", w.name, err)
		}
		all.Correct = all.Correct && res.Correct
		all.Attempted += res.Attempted
		all.Failed += res.Failed
		for k, v := range res.Metrics {
			all.Metrics[w.name+"/"+k] = v
		}
	}
	return all, nil
}

// input is one generated graph: its KONECT bytes, the graph parsed from
// them (the id space every entry point sees), and the digest of a serial
// AdaMBE run over it.
type input struct {
	konect []byte
	g      *mbe.Graph
	ref    mbe.Digest
}

// opRec is one op as the client saw it.
type opRec struct {
	warm      bool // warm-up op: checked, but kept out of the metrics
	traced    bool
	failed    bool
	lat       time.Duration
	bicliques int64
	heapMB    float64
}

// setupRec is one timed set-up.
type setupRec struct {
	d      time.Duration
	traced bool
}

// runner is what one workload run records, and reduces to its result.
type runner struct {
	cfg    config
	work   string // scratch directory
	inputs []input
	tr     *tracer // nil unless -trace 1

	opSeq int64 // next op number; guarded by mu

	mu      sync.Mutex
	ops     []opRec
	setups  []setupRec
	samples map[string][]float64 // per-layer observations, reduced by median
	means   map[string][]float64 // per-layer observations, reduced by mean
	layers  map[string]float64   // per-layer values set directly
	// wall is the measured phase's wall time, the denominator of
	// bicliques_per_s.
	wall time.Duration
}

// nextOp numbers the ops of a run from 0.
func (r *runner) nextOp() int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	n := r.opSeq
	r.opSeq++
	return n
}

func (r *runner) addOp(o opRec) {
	o.heapMB = liveHeapMB()
	r.mu.Lock()
	defer r.mu.Unlock()
	r.ops = append(r.ops, o)
}

func (r *runner) addSetup(d time.Duration, traced bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.setups = append(r.setups, setupRec{d: d, traced: traced})
}

// sample records one observation of a per-layer metric; the reported
// value is the median of its observations.
func (r *runner) sample(name string, v float64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.samples[name] = append(r.samples[name], v)
}

// mean records one observation of a per-layer metric reported as the
// mean of its observations.
func (r *runner) mean(name string, v float64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.means[name] = append(r.means[name], v)
}

// setLayer sets a per-layer metric directly.
func (r *runner) setLayer(name string, v float64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.layers[name] = v
}

// check compares the digest a client computed for op n with the
// reference; the test seam corruptOp perturbs it first.
func (r *runner) check(n int64, got mbe.Digest, ref mbe.Digest) bool {
	if n == r.cfg.corruptOp {
		got.Add(0x9e3779b97f4a7c15)
	}
	return got.Equal(ref)
}

// traced reports whether op (or set-up) i of a traced run records spans:
// a traced run alternates, so it can compare traced and untraced ops.
func (r *runner) traced(i int) bool { return r.tr != nil && i%2 == 1 }

func (r *runner) logf(format string, args ...any) {
	if r.cfg.log != nil {
		fmt.Fprintf(r.cfg.log, format+"\n", args...)
	}
}

var heapSample = []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
var heapMu sync.Mutex

// liveHeapMB is the Go live heap as of the last GC.
func liveHeapMB() float64 {
	heapMu.Lock()
	defer heapMu.Unlock()
	metrics.Read(heapSample)
	if heapSample[0].Value.Kind() != metrics.KindUint64 {
		return 0
	}
	return float64(heapSample[0].Value.Uint64()) / (1 << 20)
}

func findWorkload(name string) (*workload, error) {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i], nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// runWorkload generates the inputs, runs the workload and reduces what it
// recorded to the result.
func runWorkload(cfg config, stdout io.Writer) (result, error) {
	wl, err := findWorkload(cfg.workload)
	if err != nil {
		return result{}, err
	}
	if cfg.seconds <= 0 {
		return result{}, errors.New("-seconds must be positive")
	}
	work, err := filepath.Abs(filepath.Join(cfg.outDir, "work", fmt.Sprintf("%s-%d", wl.name, os.Getpid())))
	if err != nil {
		return result{}, err
	}
	if err := os.MkdirAll(work, 0o755); err != nil {
		return result{}, err
	}
	defer os.RemoveAll(work)

	r := &runner{cfg: cfg, work: work, samples: map[string][]float64{}, means: map[string][]float64{}, layers: map[string]float64{}}
	if cfg.trace {
		r.tr = newTracer()
	}
	if err := r.generate(wl); err != nil {
		return result{}, err
	}
	if err := wl.run(r); err != nil {
		return result{}, err
	}
	res := r.reduce()
	prov := r.provenance(wl)
	provLine, _ := json.Marshal(map[string]any{"provenance": prov})
	fmt.Fprintln(stdout, string(provLine))
	r.printHuman(stdout, wl, res)
	if cfg.trace {
		dir := filepath.Join(cfg.outDir, "traces")
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return result{}, err
		}
		path := filepath.Join(dir, fmt.Sprintf("%s-seed%d.json", wl.name, cfg.seed))
		if err := r.tr.write(path); err != nil {
			return result{}, fmt.Errorf("writing spans: %w", err)
		}
	}
	return res, nil
}

// generate builds the workload's input graphs from the seed, serializes
// them as KONECT text, parses them back, and digests a serial reference
// run over each — all before anything is timed. Graph k comes from
// sub-seed seed*64+k; two graphs are prepared at a time.
func (r *runner) generate(wl *workload) error {
	r.inputs = make([]input, wl.graphs)
	errs := make([]error, wl.graphs)
	next := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := range next {
				r.inputs[k], errs[k] = prepare(wl.gen(r.cfg.seed*64+int64(k), r.cfg.tiny))
			}
		}()
	}
	for k := 0; k < wl.graphs; k++ {
		next <- k
	}
	close(next)
	wg.Wait()
	for k, err := range errs {
		if err != nil {
			return fmt.Errorf("graph %d: %w", k, err)
		}
	}
	return nil
}

// prepare serializes g as KONECT text, parses it back and digests a
// serial AdaMBE run over the parsed graph.
func prepare(g *mbe.Graph) (input, error) {
	var buf bytes.Buffer
	if err := g.WriteEdgeList(&buf); err != nil {
		return input{}, fmt.Errorf("writing: %w", err)
	}
	parsed, err := mbe.ReadKonect(bytes.NewReader(buf.Bytes()))
	if err != nil {
		return input{}, fmt.Errorf("parsing: %w", err)
	}
	var ref mbe.Digest
	res, err := mbe.Enumerate(parsed, mbe.Options{Algorithm: mbe.AdaMBE, OnBiclique: ref.Observe})
	if err != nil || res.StopReason != mbe.StopNone {
		return input{}, fmt.Errorf("reference run: %v (%v)", err, res.StopReason)
	}
	return input{konect: buf.Bytes(), g: parsed, ref: ref}, nil
}

// reduce turns the recorded ops, set-ups and layer observations into the
// result line.
func (r *runner) reduce() result {
	r.mu.Lock()
	defer r.mu.Unlock()
	res := result{Correct: true, Metrics: map[string]metricValue{}}
	for _, o := range r.ops {
		res.Attempted++
		if o.failed {
			res.Failed++
		}
	}
	res.Correct = res.Failed == 0 && res.Attempted > 0

	if !r.cfg.trace {
		e := endToEnd(r.ops, r.setups, r.wall, func(opRec) bool { return true }, func(setupRec) bool { return true })
		for _, d := range endToEndDefs {
			res.Metrics[d.name] = metricValue{Value: e[d.name], Unit: d.unit}
		}
		return res
	}

	// Traced run: per-layer metrics, plus the overhead of tracing as the
	// difference between its traced and untraced halves.
	tr := endToEnd(r.ops, r.setups, 0, func(o opRec) bool { return o.traced }, func(s setupRec) bool { return s.traced })
	un := endToEnd(r.ops, r.setups, 0, func(o opRec) bool { return !o.traced }, func(s setupRec) bool { return !s.traced })
	r.layers["obs.trace_overhead_pct"] = overheadPct(tr["latency_p50_ms"], un["latency_p50_ms"], true)
	r.layers["obs.trace_overhead_p75_pct"] = overheadPct(tr["latency_p75_ms"], un["latency_p75_ms"], true)
	r.layers["obs.trace_overhead_tput_pct"] = overheadPct(tr["bicliques_per_s"], un["bicliques_per_s"], false)
	r.layers["obs.trace_overhead_heap_pct"] = overheadPct(tr["live_heap_mb"], un["live_heap_mb"], true)
	r.layers["obs.trace_overhead_setup_pct"] = overheadPct(tr["setup_s"], un["setup_s"], true)
	r.layers["failed_ratio"] = ratio(float64(res.Failed), float64(res.Attempted))

	self, n := r.tr.selfTimes("op")
	for _, l := range []string{"bench", "core", "server", "client"} {
		r.layers["self."+l+"_ms"] = ratio(ms(self[l]), float64(n))
	}
	self, n = r.tr.selfTimes("coord-op")
	r.layers["self.dist_ms"] = ratio(ms(self["dist"]), float64(n))
	for name, xs := range r.samples {
		r.layers[name] = median(xs)
	}
	for name, xs := range r.means {
		var sum float64
		for _, x := range xs {
			sum += x
		}
		r.layers[name] = sum / float64(len(xs))
	}
	for _, d := range perLayerDefs {
		res.Metrics[d.name] = metricValue{Value: r.layers[d.name], Unit: d.unit}
	}
	return res
}

// endToEnd computes the end-to-end metrics over the measured ops and the
// set-ups that pass the filters. With wall == 0, throughput is taken over
// the summed op latencies instead of the phase's wall time (used to
// compare the traced and untraced halves of a traced run).
func endToEnd(ops []opRec, setups []setupRec, wall time.Duration, opOK func(opRec) bool, setupOK func(setupRec) bool) map[string]float64 {
	var lats, heaps, sets []float64
	var bicliques int64
	var latSum time.Duration
	for _, o := range ops {
		if o.warm || o.failed || !opOK(o) {
			continue
		}
		lats = append(lats, float64(o.lat.Nanoseconds())/1e6)
		heaps = append(heaps, o.heapMB)
		bicliques += o.bicliques
		latSum += o.lat
	}
	for _, s := range setups {
		if setupOK(s) {
			sets = append(sets, s.d.Seconds())
		}
	}
	if wall == 0 {
		wall = latSum
	}
	sorted := sortedCopy(lats)
	return map[string]float64{
		"setup_s":         median(sets),
		"latency_p50_ms":  quantile(sorted, 0.50),
		"latency_p75_ms":  quantile(sorted, 0.75),
		"bicliques_per_s": ratio(float64(bicliques), wall.Seconds()),
		"live_heap_mb":    median(heaps),
	}
}

// provenance describes the run: where it ran, what it measured, and how
// much the op latencies spread within it.
func (r *runner) provenance(wl *workload) map[string]any {
	r.mu.Lock()
	defer r.mu.Unlock()
	var lats []float64
	warm := 0
	for _, o := range r.ops {
		if o.warm {
			warm++
			continue
		}
		if !o.failed {
			lats = append(lats, float64(o.lat.Nanoseconds())/1e6)
		}
	}
	sorted := sortedCopy(lats)
	half := len(lats) / 2
	graphs := make([]map[string]any, len(r.inputs))
	for i, in := range r.inputs {
		graphs[i] = map[string]any{"nu": in.g.NU(), "nv": in.g.NV(), "edges": in.g.NumEdges(), "bicliques": in.ref.Count}
	}
	return map[string]any{
		"workload":    wl.name,
		"why":         wl.why,
		"commit":      commit(),
		"go":          runtime.Version(),
		"nproc":       runtime.NumCPU(),
		"gomaxprocs":  runtime.GOMAXPROCS(0),
		"seed":        r.cfg.seed,
		"seconds":     r.cfg.seconds.Seconds(),
		"trace":       r.cfg.trace,
		"ops":         len(lats),
		"warmup_ops":  warm,
		"setups":      len(r.setups),
		"graphs":      graphs,
		"lat_iqr_rel": ratio(quantile(sorted, 0.75)-quantile(sorted, 0.25), quantile(sorted, 0.5)),
		// p50 of the first and second half of the measured ops: two
		// windows of one run, which should agree.
		"window_p50_ms": []float64{median(lats[:half]), median(lats[half:])},
	}
}

// commit reads the checked-out commit from .git when there is one.
func commit() string {
	head, err := os.ReadFile(filepath.Join(".git", "HEAD"))
	if err != nil {
		return "unknown"
	}
	ref, ok := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
	if !ok {
		return strings.TrimSpace(string(head))
	}
	if id, err := os.ReadFile(filepath.Join(".git", ref)); err == nil {
		return strings.TrimSpace(string(id))
	}
	return "unknown"
}

// printHuman prints the metrics one per line, each per-layer metric with
// the end-to-end metric and workload it should move.
func (r *runner) printHuman(w io.Writer, wl *workload, res result) {
	if !r.cfg.trace {
		for _, d := range endToEndDefs {
			m := res.Metrics[d.name]
			fmt.Fprintf(w, "%-22s %-28s %14.4f %s\n", wl.name, d.name, m.Value, m.Unit)
		}
		fmt.Fprintf(w, "%-22s %-28s %14.4f %s\n", wl.name, "failed_ratio",
			ratio(float64(res.Failed), float64(res.Attempted)), "1")
		return
	}
	for _, d := range perLayerDefs {
		m := res.Metrics[d.name]
		fmt.Fprintf(w, "%-22s %-30s %14.4f %-6s moves %s\n", wl.name, d.name, m.Value, m.Unit, d.moves)
	}
}
