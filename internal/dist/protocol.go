package dist

import "repro/internal/difftest"

// Wire protocol version, carried in the config and the manifest. Bump on
// any incompatible change to the frame or manifest schema.
const ProtocolVersion = 1

// Config is the coordinator's run description, served at
// GET /dist/v1/config. Workers fetch it once at startup.
type Config struct {
	Version    int   `json:"version"`
	Spec       Spec  `json:"spec"`
	Ranges     int   `json:"ranges"`
	LeaseTTLMS int64 `json:"lease_ttl_ms"`
}

// leaseRequest is the body of POST /dist/v1/lease.
type leaseRequest struct {
	Worker string `json:"worker"`
}

// Lease is a granted root range: enumerate [Resume, End) and stream
// frames tagged with Attempt. Resume > Start after a re-issue — the
// prefix [Start, Resume) is already confirmed durable at the
// coordinator and must not be re-enumerated.
type Lease struct {
	RangeID int   `json:"range_id"`
	Attempt int   `json:"attempt"`
	Start   int32 `json:"start"`
	Resume  int32 `json:"resume"`
	End     int32 `json:"end"`
	TTLMS   int64 `json:"ttl_ms"`
}

// Frame is one NDJSON line of a range stream
// (POST /dist/v1/ranges/{id}/stream). Every frame refreshes the lease's
// heartbeat. Types:
//
//   - "wm": the root interval [From, To) is complete; Delta is its
//     digest. Intervals are contiguous per attempt (From equals the
//     coordinator's current watermark) and To becomes the new watermark.
//   - "hb": heartbeat only (no watermark progress to report).
//   - "done": the final interval [From, To == range End) with Delta as
//     in "wm", plus Total — the digest of everything this attempt
//     streamed, which the coordinator cross-checks against its own
//     merge of the attempt's deltas before marking the range done.
type Frame struct {
	Type  string           `json:"type"`
	From  int32            `json:"from,omitempty"`
	To    int32            `json:"to,omitempty"`
	Delta *difftest.Digest `json:"delta,omitempty"`
	Total *difftest.Digest `json:"total,omitempty"`
}

// streamResult is the response body of a range stream (and of lease
// rejections): ok, or a reason the stream was refused.
type streamResult struct {
	OK     bool   `json:"ok"`
	Reason string `json:"reason,omitempty"`
}
