// Package tle implements amortized stop checks ("Time Limit Exceeded" in
// the paper's protocol, §IV-A): enumeration engines call Stopper.Hit on
// every node, and the clock, context and memory gauge are polled only
// once per CheckEvery calls. Each run creates one Shared and builds every
// worker's Stopper over it, so the run has one memory gauge and the first
// stop any worker observes reaches them all.
package tle

// CheckEvery is how many Hit calls elapse between polls.
const CheckEvery = 4096
