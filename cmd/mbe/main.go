// Command mbe enumerates maximal bicliques in a bipartite graph, mirroring
// the paper artifact's MBE_ALL tool:
//
//	mbe -i out.github -a ParAdaMBE -t 8 -o asc -tau 64
//	mbe -d GH -a AdaMBE               # built-in synthetic dataset
//	mbe -d BX -a FMBE -tle 30s        # competitor with a time budget
//	mbe -d UL -print                  # print every maximal biclique
//	mbe -d GH -t 8 -progress 10s -events run.jsonl -debug-addr :6060
//	mbe -d ceb -t 8 -out run.spool -ckpt-every 5s   # durable spooled run
//	mbe -d ceb -t 8 -out run.spool -resume          # resume after Ctrl-C
//	mbe cat -digest run.spool                        # digest the spool
//
// Input is a KONECT-format edge list (-i), a binary cache (-bin), or a
// named synthetic dataset (-d). The graph is oriented so the smaller side
// is V. Output reports the count, runtime (enumeration only, as in the
// paper) and basic graph statistics.
//
// Durable runs (docs/DURABILITY.md): -out streams every biclique to a
// sharded on-disk spool and checkpoints the run so an interrupted
// enumeration resumes with -resume, losing and duplicating nothing.
// `mbe cat` replays or digests a spool without re-enumerating.
//
// Live observability (docs/OBSERVABILITY.md): -progress prints a periodic
// rate/ETA line to stderr, -events writes the structured JSONL event
// stream (plot it with mbeplot -events), and -debug-addr serves
// /debug/progress, expvar and pprof (including live execution traces) over
// HTTP while the run is in flight.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	mbe "repro"
	"repro/internal/ckpt"
	"repro/internal/engine"
	"repro/internal/obs"
	"repro/internal/spool"
)

func main() {
	// Subcommands dispatch on the bare first argument, before the flag
	// package sees anything.
	if len(os.Args) > 1 && os.Args[1] == "cat" {
		runCat(os.Args[2:])
		return
	}
	rooted := strings.Join(engine.RootedNames(), "|")
	var (
		input     = flag.String("i", "", "input KONECT edge-list file")
		binary    = flag.String("bin", "", "input binary graph cache (see mbegen -bin)")
		dataset   = flag.String("d", "", "built-in synthetic dataset name (e.g. GH, BX, ceb, LJ30)")
		algo      = flag.String("a", "AdaMBE", "algorithm: "+strings.Join(mbe.AlgorithmNames, "|"))
		threads   = flag.Int("t", 0, "threads for parallel algorithms (0 = all cores)")
		tau       = flag.Int("tau", 0, "bitmap threshold τ (0 = 64)")
		ord       = flag.String("o", "asc", "vertex ordering for the rooted engines: "+strings.Join(mbe.OrderingNames, "|"))
		seed      = flag.Int64("seed", 0, "seed for -o rand")
		tle       = flag.Duration("tle", 0, "time budget (0 = unlimited); partial count reported on expiry")
		maxMem    = flag.Int64("maxmem", 0, "soft engine-memory budget in MiB (0 = unlimited); partial count reported when exceeded")
		print     = flag.Bool("print", false, "print every maximal biclique to stdout")
		progress  = flag.Duration("progress", 0, "print a progress line every interval (e.g. 10s)")
		events    = flag.String("events", "", "write JSONL observability events (run_start/sample/phase/worker_stall/run_end) to this file")
		sample    = flag.Duration("sample", time.Second, "sampling interval for -events and -debug-addr snapshots")
		debugAddr = flag.String("debug-addr", "", "serve /debug (progress JSON, expvar, pprof) on this address during the run")
		find      = flag.String("find", "", "optimization instead of enumeration: edge|balanced|vertex")
		query     = flag.Int("query", -1, "personalized maximum biclique containing V-side vertex N")
		minL      = flag.Int("minl", 0, "size-bounded enumeration: require |L| ≥ minl (with -minr)")
		minR      = flag.Int("minr", 0, "size-bounded enumeration: require |R| ≥ minr (with -minl)")
		out       = flag.String("out", "", "spool directory: stream every biclique to durable sharded storage ("+rooted+")")
		resume    = flag.Bool("resume", false, "resume an interrupted spooled run from its checkpoint (requires -out)")
		fsync     = flag.String("fsync", "checkpoint", "spool fsync policy: never|checkpoint|always")
		ckptEvery = flag.Duration("ckpt-every", 0, "checkpoint cadence for -out (0 = default 10s, negative = only at exit)")
		compress  = flag.Bool("spool-compress", false, "flate-compress spool frames")
		roots     = flag.String("roots", "", "enumerate only the root range a:b of the ordered V side (b empty = |V|); disjoint ranges partition the output exactly ("+rooted+")")
		digestOut = flag.Bool("digest", false, "accumulate the run's order-invariant multiset digest and print it; digests of disjoint -roots shards merge into the full run's digest")
	)
	flag.Parse()

	loadStart := time.Now()
	g, err := loadGraph(*input, *binary, *dataset)
	loadTime := time.Since(loadStart)
	if err != nil {
		fmt.Fprintln(os.Stderr, "mbe:", err)
		os.Exit(1)
	}
	a, err := mbe.ParseAlgorithm(*algo)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	o, err := mbe.ParseOrdering(*ord)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}

	st := g.Stats()
	fmt.Printf("graph: |U|=%d |V|=%d |E|=%d\nload time: %v\n", st.NU, st.NV, st.Edges, loadTime)

	// The debug endpoint is useful in every mode (pprof profiles and
	// execution traces work even for the finder modes), so it starts before
	// the mode dispatch.
	if *debugAddr != "" {
		bound, shutdown, err := obs.ServeDebug(*debugAddr)
		if err != nil {
			fmt.Fprintln(os.Stderr, "mbe: debug endpoint:", err)
			os.Exit(1)
		}
		defer shutdown()
		fmt.Fprintf(os.Stderr, "mbe: serving /debug on http://%s\n", bound)
	}

	if *find != "" || *query >= 0 || *minL > 0 || *minR > 0 {
		if err := runFinder(g, *find, *query, *minL, *minR, *threads, *tau, *tle); err != nil {
			fmt.Fprintln(os.Stderr, "mbe:", err)
			os.Exit(1)
		}
		return
	}

	// Ctrl-C (or SIGTERM) cancels the run instead of killing the process:
	// the engines stop at their next amortized check and the partial count
	// is still printed below. A second signal terminates immediately.
	ctx, cancelSignals := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer cancelSignals()

	opts := mbe.Options{
		Algorithm: a,
		Tau:       *tau,
		Threads:   *threads,
		Ordering:  o,
		Seed:      *seed,
		Context:   ctx,
	}
	if *tle > 0 {
		opts.Deadline = time.Now().Add(*tle)
	}
	if *out != "" || *resume {
		mode, err := spool.ParseFsyncMode(*fsync)
		if err != nil {
			fmt.Fprintln(os.Stderr, "mbe:", err)
			os.Exit(2)
		}
		opts.SpoolDir = *out
		opts.Resume = *resume
		opts.SpoolFsync = mode
		opts.SpoolCompress = *compress
		opts.Checkpoint.Every = *ckptEvery
		// A torn checkpoint (kill -9 through a non-atomic copy, lost
		// rename) degrades to a from-scratch resume; say so.
		opts.OnWarning = func(e error) { fmt.Fprintln(os.Stderr, "mbe: warning:", e) }
	}
	if *maxMem > 0 {
		opts.MaxMemoryBytes = *maxMem << 20
	}
	if *roots != "" {
		start, end, err := parseRootRange(*roots)
		if err != nil {
			fmt.Fprintln(os.Stderr, "mbe:", err)
			os.Exit(2)
		}
		opts.StartRoot, opts.EndRoot = start, end
	}
	if *print {
		opts.OnBiclique = func(L, R []int32) {
			fmt.Printf("L=%v R=%v\n", L, R)
		}
	}
	var runDigest mbe.Digest
	if *digestOut {
		inner := opts.OnBiclique
		opts.OnBiclique = func(L, R []int32) {
			runDigest.Observe(L, R)
			if inner != nil {
				inner(L, R)
			}
		}
	}
	finishObs := startObs(&opts, g, *dataset+*input+*binary, *progress, *sample, *events, *debugAddr != "")

	res, err := mbe.Enumerate(g, opts)
	finishObs()
	if err != nil && !errors.Is(err, mbe.ErrPanic) {
		fmt.Fprintln(os.Stderr, "mbe:", err)
		os.Exit(1)
	}
	var status string
	switch res.StopReason {
	case mbe.StopNone:
		status = "complete"
	case mbe.StopDeadline:
		status = "TLE (partial)"
	case mbe.StopCanceled:
		status = "interrupted (partial)"
	case mbe.StopMemoryBudget:
		status = "memory budget (partial)"
	default:
		status = res.StopReason.String() + " (partial)"
	}
	fmt.Printf("algorithm: %s\nmaximal bicliques: %d (%s)\nenumeration time: %v\n",
		a, res.Count, status, res.Elapsed.Round(time.Millisecond))
	if *digestOut {
		fmt.Printf("digest: %s\n", runDigest.String())
	}
	if *out != "" {
		printSpoolStatus(*out)
	}
	if err != nil {
		// A recovered worker panic: the partial count above is valid, but
		// surface the failure and exit non-zero.
		fmt.Fprintln(os.Stderr, "mbe:", err)
		os.Exit(1)
	}
}

// runCat implements `mbe cat [-digest] <spool-dir>`: replay a spool
// written by -out without re-enumerating anything. The default prints
// every stored biclique in -print format; -digest prints the one-line
// multiset digest (record count + order-invariant fingerprint), the form
// scripts diff to prove two spools hold identical output.
func runCat(args []string) {
	fs := flag.NewFlagSet("mbe cat", flag.ExitOnError)
	digest := fs.Bool("digest", false, "print the spool's record count and multiset digest instead of the bicliques")
	fs.Usage = func() {
		fmt.Fprintln(os.Stderr, "usage: mbe cat [-digest] <spool-dir>")
		fs.PrintDefaults()
	}
	fs.Parse(args)
	if fs.NArg() != 1 {
		fs.Usage()
		os.Exit(2)
	}
	dir := fs.Arg(0)
	if *digest {
		// SpoolDigest refuses a corrupt tail: a digest of silently
		// truncated output must never compare equal to anything.
		d, err := mbe.SpoolDigest(dir)
		if err != nil {
			fmt.Fprintln(os.Stderr, "mbe cat:", err)
			os.Exit(1)
		}
		fmt.Println(d)
		return
	}
	n, err := mbe.ReadSpool(dir, func(L, R []int32) {
		fmt.Printf("L=%v R=%v\n", L, R)
	})
	if err != nil {
		// The valid prefix was already printed; report the torn tail.
		fmt.Fprintf(os.Stderr, "mbe cat: %v (%d valid records printed)\n", err, n)
		os.Exit(1)
	}
}

// printSpoolStatus summarizes the durable output after a spooled run:
// what is on disk and whether the spool is complete or resumable.
func printSpoolStatus(dir string) {
	states, err := spool.Verify(dir)
	if err != nil {
		fmt.Fprintln(os.Stderr, "mbe: spool status:", err)
		return
	}
	var bytes, records int64
	for _, st := range states {
		bytes += st.ValidBytes
		records += st.Records
	}
	status := "resumable with -resume"
	if ck, found, err := ckpt.Load(dir); err == nil && found {
		if ck.Complete {
			status = "complete"
		} else {
			status = fmt.Sprintf("resumable with -resume from root %d", ck.Watermark)
		}
	}
	fmt.Printf("spool: %d records, %d bytes in %d shards, %s\n", records, bytes, len(states), status)
}

// startObs attaches the live observability stack to an enumeration run:
// a Recorder wired into the engine (Options.Obs), the progress sampler
// (stderr rate line and/or a JSONL event file), and the /debug/progress
// registry. It returns a finish function to call once Enumerate returns —
// on every exit path — which takes the final sample and flushes the event
// file. When no observability flag is set it is a no-op returning a no-op.
func startObs(opts *mbe.Options, g *mbe.Graph, dataset string,
	progress, sample time.Duration, events string, debug bool) func() {
	if progress <= 0 && events == "" && !debug {
		return func() {}
	}
	rec := mbe.NewRecorder(mbe.RunInfo{
		Algorithm: opts.Algorithm.String(), Dataset: dataset,
		Threads: engine.ID(opts.Algorithm).Width(opts.Threads),
		NU:      g.NU(), NV: g.NV(), Edges: g.NumEdges(),
	})
	opts.Obs = rec
	if debug {
		obs.Publish(rec)
	}
	so := obs.SamplerOptions{Interval: sample, OnSample: progressPrinter(progress)}
	var sink *obs.JSONLSink
	var eventsFile *os.File
	if events != "" {
		f, err := os.Create(events)
		if err != nil {
			fmt.Fprintln(os.Stderr, "mbe: events:", err)
			os.Exit(1)
		}
		eventsFile = f
		sink = obs.NewJSONLSink(f)
		so.Sink = sink
	}
	stop := obs.StartSampler(rec, so)
	return func() {
		stop()
		if sink != nil {
			if err := sink.Flush(); err != nil {
				fmt.Fprintln(os.Stderr, "mbe: events:", err)
			}
			if err := eventsFile.Close(); err != nil {
				fmt.Fprintln(os.Stderr, "mbe: events:", err)
			}
		}
	}
}

// progressPrinter returns the sampler hook behind -progress: the classic
// stderr rate line, throttled to at most one line per interval, with the
// root-frontier ETA appended once the frontier has moved.
func progressPrinter(every time.Duration) func(obs.Event) {
	if every <= 0 {
		return nil
	}
	last := time.Now() // first line lands ~one interval in, as before
	return func(e obs.Event) {
		if e.Snap == nil {
			return
		}
		now := time.Now()
		if now.Sub(last) < every-50*time.Millisecond {
			return
		}
		last = now
		el := (time.Duration(e.TMS) * time.Millisecond).Round(time.Second)
		line := fmt.Sprintf("progress: %d maximal bicliques in %v (%.0f/s)",
			e.Snap.Bicliques, el, e.BicliquesPerSec)
		if e.EtaMS > 0 {
			line += fmt.Sprintf(", eta ~%v", (time.Duration(e.EtaMS) * time.Millisecond).Round(time.Second))
		}
		fmt.Fprintln(os.Stderr, line)
	}
}

// runFinder dispatches the biclique-optimization modes (-find, -query,
// -minl/-minr).
func runFinder(g *mbe.Graph, find string, query, minL, minR, threads, tau int, tle time.Duration) error {
	fo := mbe.FindOptions{Threads: threads, Tau: tau}
	if tle > 0 {
		fo.Deadline = time.Now().Add(tle)
	}
	report := func(kind string, res mbe.FindResult) {
		if !res.Found {
			fmt.Printf("%s: no biclique found\n", kind)
			return
		}
		status := ""
		if res.TimedOut {
			status = " (TLE: best found so far)"
		}
		fmt.Printf("%s%s: |L|=%d |R|=%d edges=%d\n  L=%v\n  R=%v\n",
			kind, status, len(res.Best.L), len(res.Best.R), res.Best.Edges(), res.Best.L, res.Best.R)
	}
	switch {
	case query >= 0:
		res, err := mbe.PersonalizedMaximumBiclique(g, int32(query), fo)
		if err != nil {
			return err
		}
		report(fmt.Sprintf("personalized maximum biclique (v%d)", query), res)
	case minL > 0 || minR > 0:
		if minL < 1 || minR < 1 {
			return fmt.Errorf("-minl and -minr must both be ≥ 1")
		}
		n, err := mbe.EnumerateSizeBounded(g, minL, minR, func(L, R []int32) {
			fmt.Printf("L=%v R=%v\n", L, R)
		}, fo)
		if err != nil {
			return err
		}
		fmt.Printf("maximal bicliques with |L|≥%d and |R|≥%d: %d\n", minL, minR, n)
	case find == "edge":
		res, err := mbe.MaximumEdgeBiclique(g, fo)
		if err != nil {
			return err
		}
		report("maximum edge biclique", res)
	case find == "balanced":
		res, err := mbe.MaximumBalancedBiclique(g, fo)
		if err != nil {
			return err
		}
		report("maximum balanced biclique", res)
	case find == "vertex":
		res, err := mbe.MaximumVertexBiclique(g, fo)
		if err != nil {
			return err
		}
		report("maximum vertex biclique", res)
	default:
		return fmt.Errorf("unknown -find %q (want edge|balanced|vertex)", find)
	}
	return nil
}

// parseRootRange parses the -roots "a:b" syntax into (StartRoot, EndRoot).
// "a:" leaves EndRoot 0 (= |V|). Empty/reversed ranges and ranges past |V|
// are rejected by Enumerate, where the graph's size is known.
func parseRootRange(s string) (start, end int32, err error) {
	a, b, ok := strings.Cut(s, ":")
	if !ok {
		return 0, 0, fmt.Errorf("-roots %q: want a:b (e.g. 0:1000) or a: (to the last root)", s)
	}
	if a != "" {
		v, perr := strconv.ParseInt(a, 10, 32)
		if perr != nil || v < 0 {
			return 0, 0, fmt.Errorf("-roots %q: bad start root %q", s, a)
		}
		start = int32(v)
	}
	if b != "" {
		v, perr := strconv.ParseInt(b, 10, 32)
		if perr != nil || v < 0 {
			return 0, 0, fmt.Errorf("-roots %q: bad end root %q", s, b)
		}
		end = int32(v)
		if end <= start {
			return 0, 0, fmt.Errorf("-roots %q: empty or reversed range", s)
		}
	}
	return start, end, nil
}

func loadGraph(input, binary, dataset string) (*mbe.Graph, error) {
	n := 0
	for _, s := range []string{input, binary, dataset} {
		if s != "" {
			n++
		}
	}
	if n != 1 {
		return nil, fmt.Errorf("exactly one of -i, -bin, -d is required")
	}
	switch {
	case input != "":
		return mbe.LoadKonect(input)
	case binary != "":
		f, err := os.Open(binary)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		return mbe.ReadBinary(f)
	default:
		return mbe.Dataset(dataset)
	}
}
