// Package tle owns the run lifecycle of every enumeration engine: how a
// run stops ("Time Limit Exceeded" in the paper's protocol, §IV-A), fails
// and reports. Engines call Stopper.Hit on every node, and the clock,
// context and memory gauge are polled only once per CheckEvery calls;
// Stopper.Fault runs the test-only fault hook at instrumentation sites.
// Each run creates one Shared and builds every worker's Stopper over it,
// so the run has one memory gauge, the first stop any worker observes
// reaches them all, and Shared.Recover keeps the run's first panic.
// Shared.Outcome is the run's stop reason and error, in the one stop
// vocabulary (Reason) that core.Result reports.
package tle

// CheckEvery is how many Hit calls elapse between polls.
const CheckEvery = 4096
