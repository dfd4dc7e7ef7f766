// Command mbecoord runs the distributed-enumeration coordinator — or,
// with -worker, one worker process (docs/DISTRIBUTED.md).
//
// Coordinator: split the root space into ranges, lease them to workers
// with heartbeat expiry, merge their streamed digests, persist
// dist-manifest.json (kill -9 recoverable), and serve progress and
// /metrics:
//
//	mbecoord -addr 127.0.0.1:7600 -dir run.dist -d GH -a ParAdaMBE -ranges 16 -exit-when-done
//
// Worker: lease ranges from a coordinator until the run completes. The
// graph is loaded from the coordinator's config (dataset name or file
// path) and verified by signature:
//
//	mbecoord -worker -coord http://127.0.0.1:7600 -t 4
//
// Restarting the coordinator over the same -dir resumes the run from
// the manifest: finished ranges stay finished, leased ranges are
// re-issued from their confirmed watermarks.
package main

import (
	"context"
	"flag"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/engine"
	"repro/internal/obs"
	"repro/internal/order"
)

func main() {
	var (
		workerMode = flag.Bool("worker", false, "run as a worker against -coord instead of as the coordinator")

		// Coordinator flags.
		addr     = flag.String("addr", "127.0.0.1:7600", "coordinator listen address")
		dir      = flag.String("dir", "", "coordinator state directory (dist-manifest.json); required")
		input    = flag.String("i", "", "input KONECT edge-list file (workers must see the same path)")
		binary   = flag.String("bin", "", "input binary graph cache")
		dataset  = flag.String("d", "", "built-in synthetic dataset name (e.g. GH, BX, ceb)")
		algo     = flag.String("a", "AdaMBE", "algorithm: "+strings.Join(engine.RootedNames(), "|"))
		ord      = flag.String("o", "asc", "vertex ordering: "+strings.Join(order.Tags(), "|"))
		seed     = flag.Int64("seed", 0, "seed for -o rand")
		tau      = flag.Int("tau", 0, fmt.Sprintf("bitmap threshold τ (0 = %d)", core.DefaultTau))
		ranges   = flag.Int("ranges", 16, "number of root ranges to shard the run into")
		leaseTTL = flag.Duration("lease-ttl", dist.DefaultLeaseTTL, "lease heartbeat expiry")
		durable  = flag.Bool("durable", false, "fsync the manifest directory on terminal state changes")
		exitDone = flag.Bool("exit-when-done", false, "exit (printing the global digest) once every range is done")

		// Worker flags.
		coord   = flag.String("coord", "", "coordinator base URL (worker mode)")
		id      = flag.String("id", "", "worker id (default host-pid)")
		threads = flag.Int("t", 0, "threads for the parallel engine (worker mode)")
	)
	flag.Parse()

	log := slog.New(slog.NewTextHandler(os.Stderr, nil))

	if *workerMode {
		if *coord == "" {
			fmt.Fprintln(os.Stderr, "mbecoord: -worker requires -coord")
			os.Exit(2)
		}
		ctx, cancel := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
		defer cancel()
		w := dist.NewWorker(dist.WorkerOptions{
			Coord:   strings.TrimRight(*coord, "/"),
			ID:      *id,
			Threads: *threads,
			Log:     log,
		})
		if err := w.Run(ctx); err != nil && ctx.Err() == nil {
			fmt.Fprintln(os.Stderr, "mbecoord: worker:", err)
			os.Exit(1)
		}
		return
	}

	if *dir == "" {
		fmt.Fprintln(os.Stderr, "mbecoord: -dir is required")
		os.Exit(2)
	}
	spec := dist.Spec{
		Algorithm: *algo,
		Ordering:  *ord,
		OrderSeed: *seed,
		Tau:       *tau,
		Dataset:   *dataset,
		Path:      *input,
		Bin:       *binary,
	}
	g, err := spec.LoadGraph()
	if err != nil {
		fmt.Fprintln(os.Stderr, "mbecoord:", err)
		os.Exit(1)
	}
	spec = spec.WithGraph(g)

	c, err := dist.NewCoordinator(dist.CoordOptions{
		Spec: spec, Dir: *dir, Ranges: *ranges,
		LeaseTTL: *leaseTTL, Durable: *durable, Log: log,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "mbecoord:", err)
		os.Exit(1)
	}
	c.Start()
	defer c.Stop()

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "mbecoord:", err)
		os.Exit(1)
	}
	srv := &http.Server{Handler: c.Handler()}
	go func() {
		if err := srv.Serve(ln); err != nil && err != http.ErrServerClosed {
			fmt.Fprintln(os.Stderr, "mbecoord: serve:", err)
			os.Exit(1)
		}
	}()
	fmt.Printf("mbecoord: coordinating %d ranges on http://%s (dir %s)\n",
		len(dist.SplitRoots(spec.NV, *ranges)), ln.Addr(), *dir)

	ctx, cancel := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer cancel()
	if *exitDone {
		select {
		case <-c.Done():
			d, _ := c.GlobalDigest()
			p := c.Progress()
			fmt.Printf("maximal bicliques: %d\ndigest: %s\nranges: %d elapsed: %v\n",
				d.Count, d.String(), p.RangesTotal,
				(time.Duration(p.ElapsedMS) * time.Millisecond).Round(time.Millisecond))
		case <-ctx.Done():
		}
	} else {
		<-ctx.Done()
	}
	// The manifest is already durable: draining only lets in-flight
	// requests finish.
	obs.ShutdownServer(srv, obs.ShutdownTimeout)
}
