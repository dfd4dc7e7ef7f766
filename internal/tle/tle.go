// Package tle implements amortized stop checks ("Time Limit Exceeded" in
// the paper's protocol, §IV-A): enumeration engines call Stopper.Hit on
// every node, and the clock, context and memory gauge are polled only
// once per CheckEvery calls.
package tle

// CheckEvery is how many Hit calls elapse between polls.
const CheckEvery = 4096
