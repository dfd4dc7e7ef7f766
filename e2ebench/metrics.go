package main

import (
	"math"
	"sort"
)

// metricDef names one reported metric. For a per-layer metric, moves says
// which end-to-end metric it should move and on which workload.
type metricDef struct {
	name  string
	unit  string
	moves string
}

// endToEndDefs are printed with -trace 0: what a user of the system sees.
var endToEndDefs = []metricDef{
	{name: "setup_s", unit: "s"},
	{name: "latency_p50_ms", unit: "ms"},
	{name: "latency_p75_ms", unit: "ms"},
	{name: "bicliques_per_s", unit: "1/s"},
	{name: "live_heap_mb", unit: "MB"},
}

// Target workloads, abbreviated in perLayerDefs.
const (
	onPar2 = "mbe-affil-par2"
	onJobs = "mbed-affil-jobs"
	onAll  = "all workloads"
	// onCoord is where the dist layer is measured: coordinator runs that
	// no end-to-end metric times.
	onCoord = "coordinator side runs of the traced " + onPar2 + " run"
)

// perLayerDefs are printed with -trace 1. A workload that does not
// exercise a layer reports that layer's metrics as 0.
var perLayerDefs = []metricDef{
	{"graph.parse_ms", "ms", "setup_s on " + onAll},
	{"order.permute_ms", "ms", "latency_p50_ms on " + onJobs},

	{"core.enumerate_ms", "ms", "latency_p50_ms, bicliques_per_s on " + onPar2},
	{"core.nodes", "count", "latency_p50_ms, bicliques_per_s on " + onPar2},
	{"core.maximal_ratio", "1", "latency_p50_ms, bicliques_per_s on " + onPar2},
	{"core.set_intersections", "count", "latency_p50_ms, bicliques_per_s on " + onPar2},
	{"core.bitmaps", "count", "latency_p50_ms, live_heap_mb on " + onPar2},
	{"core.bit_time_share", "1", "latency_p50_ms on " + onPar2},
	{"core.mem_peak_mb", "MB", "live_heap_mb on " + onPar2},

	{"sched.tasks_spawned", "count", "latency_p50_ms, latency_p75_ms on " + onPar2},
	{"sched.steal_ratio", "1", "latency_p50_ms, latency_p75_ms on " + onPar2},
	{"sched.inline_ratio", "1", "latency_p50_ms, latency_p75_ms on " + onPar2},
	{"sched.arena_hit_ratio", "1", "latency_p50_ms, latency_p75_ms on " + onPar2},
	{"sched.busy_share", "1", "latency_p50_ms, latency_p75_ms on " + onPar2},
	{"sched.idle_share", "1", "latency_p50_ms, latency_p75_ms on " + onPar2},
	{"sched.speedup_vs_serial", "x", "latency_p50_ms, latency_p75_ms on " + onPar2},

	{"spool.write_overhead_ms", "ms", "latency_p50_ms on " + onJobs},
	{"spool.replay_ms", "ms", "latency_p50_ms on " + onJobs},
	{"spool.bytes_per_biclique", "B", "latency_p50_ms on " + onJobs},
	{"spool.frames", "count", "latency_p50_ms on " + onJobs},
	{"spool.fsyncs", "count", "latency_p50_ms on " + onJobs},

	{"server.submit_ms", "ms", "latency_p50_ms, latency_p75_ms on " + onJobs},
	{"server.queue_wait_ms", "ms", "latency_p50_ms, latency_p75_ms on " + onJobs},
	{"server.run_ms", "ms", "latency_p50_ms, bicliques_per_s on " + onJobs},
	{"server.stream_ms", "ms", "latency_p50_ms, bicliques_per_s on " + onJobs},
	{"server.polls_per_job", "count", "latency_p50_ms on " + onJobs},
	{"server.verify_ms", "ms", "latency_p50_ms on " + onJobs + " (client-side)"},
	{"server.cache_hit_ratio", "1", "latency_p50_ms, bicliques_per_s on " + onJobs},
	{"server.retries", "count", "failed_ratio, latency_p75_ms on " + onJobs},
	{"server.sheds", "count", "failed_ratio on " + onJobs},

	{"dist.bootstrap_ms", "ms", "coordinator set-up time in the " + onCoord},
	{"dist.intersection_inflation", "x", "coordinator run time in the " + onCoord},
	{"dist.range_time_max_share", "1", "coordinator run time in the " + onCoord},
	{"dist.worker_idle_share", "1", "coordinator run time in the " + onCoord},
	{"dist.watermark_frames", "count", "coordinator run time in the " + onCoord},
	{"dist.leases_reissued", "count", "failed coordinator runs in the " + onCoord},
	{"dist.frames_rejected", "count", "failed coordinator runs in the " + onCoord},
	{"dist.worker_exit_lag_ms", "ms", "reported only, from the " + onCoord},

	{"self.bench_ms", "ms", "self time of the benchmark's own op spans, on " + onAll},
	{"self.core_ms", "ms", "latency_p50_ms on " + onPar2},
	{"self.server_ms", "ms", "latency_p50_ms on " + onJobs},
	{"self.client_ms", "ms", "latency_p50_ms on " + onAll},
	{"self.dist_ms", "ms", "coordinator run time in the " + onCoord},

	{"obs.trace_overhead_pct", "%", "latency_p50_ms, traced vs untraced ops, on " + onAll},
	{"obs.trace_overhead_p75_pct", "%", "latency_p75_ms, traced vs untraced ops, on " + onAll},
	{"obs.trace_overhead_tput_pct", "%", "bicliques_per_s, traced vs untraced ops, on " + onAll},
	{"obs.trace_overhead_heap_pct", "%", "live_heap_mb, traced vs untraced ops, on " + onAll},
	{"obs.trace_overhead_setup_pct", "%", "setup_s, traced vs untraced set-ups, on " + onAll},

	{"failed_ratio", "1", "ops failed, refused, timed out or mismatched over ops attempted, on " + onAll},
}

// quantile is the linearly interpolated q-quantile of sorted (type 7, as
// numpy's default); 0 for an empty slice.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return sorted[lo] + (sorted[hi]-sorted[lo])*(pos-float64(lo))
}

// median returns the median of xs without modifying it.
func median(xs []float64) float64 {
	s := sortedCopy(xs)
	return quantile(s, 0.5)
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// ratio returns a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// overheadPct is how much worse traced is than untraced, in percent of
// untraced; lowerBetter says which direction is worse.
func overheadPct(traced, untraced float64, lowerBetter bool) float64 {
	if untraced == 0 {
		return 0
	}
	if lowerBetter {
		return (traced - untraced) / untraced * 100
	}
	return (untraced - traced) / untraced * 100
}
