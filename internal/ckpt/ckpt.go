// Package ckpt makes spooled enumeration runs resumable. It tracks the
// root frontier of a running enumeration (which root-vertex subtrees
// are fully finished), periodically persists a checkpoint — the
// completed-root watermark plus the spool shard offsets durable at that
// moment — and, on resume, rewinds the spool to exactly the watermark's
// worth of output before restarting enumeration at the watermark.
//
// The core invariant making a single watermark sufficient: every
// maximal biclique is emitted exactly once, in the subtree of the root
// vertex that is the minimum (in engine order) of its R side. Root
// subtrees therefore partition the output, and "all roots < W done"
// identifies a durable, exactly-once prefix of it regardless of thread
// count, stealing order, or algorithm variant. See docs/DURABILITY.md
// for why the pruned-root state lost across a resume cannot change the
// output.
package ckpt

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"repro/internal/spool"
)

// Version is the checkpoint schema version.
const Version = 1

// DefaultEvery is the checkpoint cadence when the caller doesn't pick
// one: frequent enough that an interrupt rarely loses more than a few
// seconds of enumeration, rare enough that fsync cost is noise.
const DefaultEvery = 10 * time.Second

// Checkpoint is the durable resume point, stored as checkpoint.json in
// the spool directory. Watermark W asserts: every root < W is fully
// enumerated AND its records are inside the flushed shard prefixes
// recorded here. Both claims are conservative — the shards may hold
// more (later frames, partial subtrees of roots ≥ W); resume compacts
// that excess away.
type Checkpoint struct {
	Version      int     `json:"version"`
	Watermark    int32   `json:"watermark"`
	Complete     bool    `json:"complete"`
	ShardOffsets []int64 `json:"shard_offsets"`
	Records      int64   `json:"records,omitempty"` // flushed records at write time (advisory)
	Seq          int64   `json:"seq"`
	WrittenAt    string  `json:"written_at,omitempty"`
}

// Write persists the checkpoint atomically (temp file + fsync + rename
// + directory fsync when durable): a crash at any instant leaves either
// the previous checkpoint or this one under checkpoint.json, never a
// torn file.
func (c Checkpoint) Write(dir string, durable bool) error {
	return spool.WriteJSON(filepath.Join(dir, spool.CheckpointFile), c, durable)
}

// CorruptError reports a checkpoint.json whose bytes do not decode to a
// well-formed checkpoint — the signature of a torn or truncated write
// (possible only when the file was produced without the atomic
// temp+fsync+rename protocol, e.g. by a crashed copy or a filesystem
// that lost the rename). It is recoverable: the spool's frames are
// self-validating, so treating the checkpoint as absent restarts the
// run from watermark 0 over the same spool, losing only the watermark,
// never correctness. ckpt.Open does exactly that, surfacing the
// condition through OpenOptions.OnWarn.
type CorruptError struct {
	Path  string
	Cause error
}

func (e *CorruptError) Error() string {
	return fmt.Sprintf("ckpt: corrupt checkpoint %s (treating as absent): %v", e.Path, e.Cause)
}

func (e *CorruptError) Unwrap() error { return e.Cause }

// Load reads the checkpoint from a spool directory. A missing file is
// not an error: it returns a zero checkpoint (watermark 0) and ok =
// false, which resumes as a from-scratch run over the same spool. A
// file that exists but does not decode — torn, truncated, or otherwise
// mangled — returns ok = false with a *CorruptError, so callers can
// choose between failing loudly and degrading to a from-scratch resume
// (Open does the latter).
func Load(dir string) (Checkpoint, bool, error) {
	var c Checkpoint
	path := filepath.Join(dir, spool.CheckpointFile)
	blob, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return c, false, nil
	}
	if err != nil {
		return c, false, err
	}
	if err := json.Unmarshal(blob, &c); err != nil {
		return Checkpoint{}, false, &CorruptError{Path: path, Cause: err}
	}
	if c.Version != Version {
		return c, false, fmt.Errorf("ckpt: unsupported checkpoint version %d (want %d)", c.Version, Version)
	}
	if c.Watermark < 0 {
		return Checkpoint{}, false, &CorruptError{Path: path, Cause: fmt.Errorf("negative watermark %d", c.Watermark)}
	}
	return c, true, nil
}
