// Package spool is the durable output path for enumeration runs: a
// sharded on-disk sink that streams maximal bicliques to append-only
// shard files as they are found, so a run interrupted by SIGINT, a
// deadline, or a memory-budget stop keeps everything it already
// enumerated instead of discarding hours of work with the process.
//
// Layout: a spool is a directory holding one JSON meta file
// (spool.json, written once at creation) and N shard files
// (shard-0000.mbs …), one per worker of the run that created it. Each
// worker appends to its own shard through a per-shard buffer, so the
// emission path takes no lock shared between workers — the same
// discipline as core's UnorderedEmit.
//
// Shard format: a shard is a sequence of self-contained frames. Each
// frame is a CRC32C-protected, optionally flate-compressed block of
// delta-encoded biclique records (see docs/DURABILITY.md for the
// byte-level layout). Frames are the durability and recovery unit: a
// torn tail — a partial header, truncated payload, or CRC mismatch
// left by a crash — is detected by the reader, which recovers every
// frame before it. Every record carries the root V-vertex of the
// enumeration subtree that produced it, which is what lets a resumed
// run (internal/ckpt) drop the partial output of incomplete subtrees
// exactly.
package spool

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"

	"repro/internal/graph"
)

// Format constants. The frame header is fixed-size and byte-exact; see
// docs/DURABILITY.md for the normative layout.
const (
	// frameMagic starts every frame ("MBS1": Maximal Biclique Spool v1).
	frameMagicString = "MBS1"
	// frameHeaderSize = magic(4) + flags(1) + payloadLen(4) + crc(4).
	frameHeaderSize = 13
	// flagCompressed marks a flate-compressed payload.
	flagCompressed = 0x01

	// MaxFramePayload bounds a stored frame payload. The writer targets
	// frames far smaller; the bound exists so the decoder never trusts a
	// corrupt length field into a huge allocation.
	MaxFramePayload = 16 << 20

	// DefaultFrameBytes is the payload size at which a shard writer cuts
	// a frame: large enough to amortize the header, CRC and (optional)
	// compression over thousands of records, small enough that a crash
	// loses little and checkpoint flushes stay cheap.
	DefaultFrameBytes = 128 << 10

	// Version is the spool format version: Create stamps it into every
	// spool.json and LoadMeta refuses any other, so a spool written by an
	// incompatible build is never replayed, verified or resumed.
	Version = 1

	// MetaFile and CheckpointFile are the well-known names inside a
	// spool directory. CheckpointFile is owned by internal/ckpt; it is
	// named here so the two packages agree.
	MetaFile       = "spool.json"
	CheckpointFile = "checkpoint.json"
)

var frameMagic = []byte(frameMagicString)

// crcTable is CRC32C (Castagnoli), the polynomial with hardware support
// on both amd64 and arm64.
var crcTable = crc32.MakeTable(crc32.Castagnoli)

// FsyncMode selects the durability/throughput trade-off of the shard
// writers. The zero value is FsyncCheckpoint.
type FsyncMode uint8

const (
	// FsyncCheckpoint (the default) fsyncs shards only when a checkpoint
	// (or the final Sync) asks for durability: frames stream through the
	// page cache between checkpoints, and the checkpoint protocol
	// guarantees everything a checkpoint claims is on disk.
	FsyncCheckpoint FsyncMode = iota
	// FsyncNever leaves persistence entirely to the OS — no fsync is
	// ever issued, including at checkpoints. Checkpoints written in this
	// mode are advisory: an OS crash can invalidate them (an ordinary
	// process death cannot).
	FsyncNever
	// FsyncAlways fsyncs after every frame write. Maximal durability,
	// measurable cost on high-output runs.
	FsyncAlways
)

// String names the mode as used by the CLI -fsync flag.
func (m FsyncMode) String() string {
	switch m {
	case FsyncCheckpoint:
		return "checkpoint"
	case FsyncNever:
		return "never"
	case FsyncAlways:
		return "always"
	default:
		return fmt.Sprintf("FsyncMode(%d)", int(m))
	}
}

// ParseFsyncMode inverts String.
func ParseFsyncMode(s string) (FsyncMode, error) {
	switch s {
	case "checkpoint":
		return FsyncCheckpoint, nil
	case "never":
		return FsyncNever, nil
	case "always":
		return FsyncAlways, nil
	}
	return 0, fmt.Errorf("spool: unknown fsync mode %q (want never|checkpoint|always)", s)
}

// Meta is the spool's identity, written once to spool.json at creation.
// A resume must present a compatible Meta: the graph signature, ordering
// and ordering seed pin the root decomposition the checkpoint watermark
// is meaningful against (algorithm, τ and thread count may change across
// a resume — they alter the traversal strategy, not which biclique
// belongs to which root subtree).
type Meta struct {
	// Version is stamped by Create; callers leave it zero.
	Version   int    `json:"version"`
	Tool      string `json:"tool,omitempty"`
	Algorithm string `json:"algorithm"`
	Ordering  string `json:"ordering"`
	OrderSeed int64  `json:"order_seed"`
	Tau       int    `json:"tau"`
	Shards    int    `json:"shards"`

	// Graph identity: sizes plus a degree-sequence hash. Cheap to
	// compute (O(|U|+|V|)) and collision-resistant enough to catch every
	// accidental graph mismatch on resume.
	NU         int    `json:"nu"`
	NV         int    `json:"nv"`
	Edges      int64  `json:"edges"`
	GraphHash  string `json:"graph_hash"`
	Compress   bool   `json:"compress"`
	CreatedAt  string `json:"created_at,omitempty"`
	FrameBytes int    `json:"frame_bytes,omitempty"`
}

// CompatibleResume reports whether a run described by want may append to
// a spool created with have, with a reason when it may not. The format
// version is not compared here: LoadMeta already refused any other.
func CompatibleResume(have, want Meta) error {
	switch {
	case have.NU != want.NU || have.NV != want.NV || have.Edges != want.Edges || have.GraphHash != want.GraphHash:
		return fmt.Errorf("spool: graph mismatch: spool %dx%d/%d (%s), run %dx%d/%d (%s)",
			have.NU, have.NV, have.Edges, have.GraphHash, want.NU, want.NV, want.Edges, want.GraphHash)
	case have.Ordering != want.Ordering || have.OrderSeed != want.OrderSeed:
		return fmt.Errorf("spool: ordering mismatch: spool %s/seed=%d, run %s/seed=%d — the checkpoint watermark is only meaningful under the original root order",
			have.Ordering, have.OrderSeed, want.Ordering, want.OrderSeed)
	}
	return nil
}

// GraphSignature hashes the graph's degree sequences (FNV-1a over both
// sides plus the dimensions) into a short hex string for Meta.GraphHash.
func GraphSignature(g *graph.Bipartite) string {
	const (
		offset = 0xcbf29ce484222325
		prime  = 0x00000100000001b3
	)
	h := uint64(offset)
	mix := func(x uint64) {
		var b [8]byte
		binary.LittleEndian.PutUint64(b[:], x)
		for _, c := range b {
			h = (h ^ uint64(c)) * prime
		}
	}
	mix(uint64(g.NU()))
	mix(uint64(g.NV()))
	mix(uint64(g.NumEdges()))
	for u := int32(0); u < int32(g.NU()); u++ {
		mix(uint64(g.DegU(u)))
	}
	for v := int32(0); v < int32(g.NV()); v++ {
		mix(uint64(g.DegV(v)))
	}
	return fmt.Sprintf("%016x", h)
}

// ShardName returns the file name of shard i.
func ShardName(i int) string { return fmt.Sprintf("shard-%04d.mbs", i) }

// Record encoding. Within a frame payload:
//
//	uvarint recordCount
//	recordCount × {
//	    varint  rootDelta   (root − previous record's root; starts at 0)
//	    uvarint |L|, uvarint |R|   (both ≥ 1)
//	    uvarint L[0], then uvarint L[i]−L[i−1]   (strictly ascending)
//	    uvarint R[0], then uvarint R[i]−R[i−1]   (strictly ascending)
//	}
//
// Sides are stored sorted ascending, which both makes the deltas small
// (typically one byte) and canonicalizes the record: replaying a spool
// yields each side in sorted order, and the digest is side-order
// invariant anyway.

// appendRecord encodes one record onto buf. L and R must already be
// sorted strictly ascending and non-empty.
func appendRecord(buf []byte, rootDelta int32, L, R []int32) []byte {
	buf = binary.AppendVarint(buf, int64(rootDelta))
	buf = binary.AppendUvarint(buf, uint64(len(L)))
	buf = binary.AppendUvarint(buf, uint64(len(R)))
	buf = appendSide(buf, L)
	buf = appendSide(buf, R)
	return buf
}

func appendSide(buf []byte, s []int32) []byte {
	prev := int32(0)
	for i, v := range s {
		if i == 0 {
			buf = binary.AppendUvarint(buf, uint64(uint32(v)))
		} else {
			buf = binary.AppendUvarint(buf, uint64(uint32(v-prev)))
		}
		prev = v
	}
	return buf
}

// Decode errors. errTruncatedFrame and friends are deliberately
// unexported: callers see them through ShardState / TailError.
var (
	errBadMagic   = errors.New("spool: bad frame magic")
	errBadCRC     = errors.New("spool: frame CRC mismatch")
	errTruncated  = errors.New("spool: truncated frame")
	errBadPayload = errors.New("spool: malformed frame payload")
	errTooLarge   = errors.New("spool: frame payload length exceeds bound")
)

// decodePayload streams every record of a decompressed frame payload to
// fn. The l/r scratch slices are reused across calls and returned (the
// caller threads them through). Allocation is bounded: a side's declared
// length is validated against the bytes remaining in the payload (every
// encoded id costs ≥ 1 byte) before anything is allocated, so a corrupt
// or adversarial length field cannot force an over-allocation.
func decodePayload(p []byte, l, r []int32, fn func(root int32, L, R []int32)) ([]int32, []int32, error) {
	count, n := binary.Uvarint(p)
	if n <= 0 || count > uint64(len(p)) {
		return l, r, errBadPayload
	}
	p = p[n:]
	root := int32(0)
	for rec := uint64(0); rec < count; rec++ {
		delta, n := binary.Varint(p)
		if n <= 0 || delta < math.MinInt32 || delta > math.MaxInt32 {
			return l, r, errBadPayload
		}
		p = p[n:]
		root += int32(delta)

		lenL, n := binary.Uvarint(p)
		if n <= 0 {
			return l, r, errBadPayload
		}
		p = p[n:]
		lenR, n := binary.Uvarint(p)
		if n <= 0 {
			return l, r, errBadPayload
		}
		p = p[n:]
		if lenL == 0 || lenR == 0 || lenL+lenR > uint64(len(p)) {
			return l, r, errBadPayload
		}

		var err error
		if l, err = decodeSide(l, int(lenL), &p); err != nil {
			return l, r, err
		}
		if r, err = decodeSide(r, int(lenR), &p); err != nil {
			return l, r, err
		}
		fn(root, l, r)
	}
	if len(p) != 0 {
		return l, r, errBadPayload
	}
	return l, r, nil
}

func decodeSide(dst []int32, k int, p *[]byte) ([]int32, error) {
	dst = dst[:0]
	if cap(dst) < k {
		dst = make([]int32, 0, k)
	}
	prev := int32(0)
	for i := 0; i < k; i++ {
		v, n := binary.Uvarint(*p)
		if n <= 0 || v > math.MaxUint32 {
			return dst, errBadPayload
		}
		*p = (*p)[n:]
		cur := prev + int32(uint32(v))
		if i > 0 && cur <= prev {
			return dst, errBadPayload // sides are strictly ascending
		}
		dst = append(dst, cur)
		prev = cur
	}
	return dst, nil
}
