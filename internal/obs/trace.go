package obs

import (
	"context"
	"runtime/trace"
)

// runtime/trace wrapper: the engines annotate coarse units of work —
// scheduler tasks and bitmap (BIT) subtrees, not individual nodes — so
// `go tool trace` shows where workers spend time and how steal/park
// behavior lines up with the user-region timeline. Capture a trace live
// from a running process via the /debug endpoint:
//
//	curl -o run.trace 'http://ADDR/debug/pprof/trace?seconds=10'
//	go tool trace run.trace
//
// The wrapper costs one atomic load while tracing is off.

// TraceRegion opens a named user region; while tracing is off the
// returned region is runtime/trace's no-op singleton, so callers can
// defer End unconditionally.
func TraceRegion(name string) *trace.Region {
	return trace.StartRegion(context.Background(), name)
}
