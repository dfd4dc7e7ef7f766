// Command mbeplot renders the worker-utilization timeline of a live run
// from its JSONL event stream (docs/OBSERVABILITY.md) as an SVG:
//
//	mbe -d GH -a ParAdaMBE -t 8 -events run.jsonl
//	mbeplot -events run.jsonl            # writes run_workers.svg
//
// The paper's figures are reproduced as mbebench tables and CSVs (see
// EXPERIMENTS.md), not plotted here.
package main

import (
	"flag"
	"fmt"
	"os"
)

func main() {
	events := flag.String("events", "", "JSONL event stream (mbe -events) to render as a worker-utilization timeline")
	out := flag.String("o", "", "output SVG path (default: <events>_workers.svg)")
	flag.Parse()

	if *events == "" {
		fmt.Fprintln(os.Stderr, "mbeplot: -events is required")
		flag.Usage()
		os.Exit(2)
	}
	path := *out
	if path == "" {
		path = timelineOutPath(*events)
	}
	if err := renderTimeline(*events, path); err != nil {
		fmt.Fprintln(os.Stderr, "mbeplot:", err)
		os.Exit(1)
	}
	fmt.Println("wrote", path)
}
