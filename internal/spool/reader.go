package spool

import (
	"bufio"
	"bytes"
	"compress/flate"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
)

// LoadMeta reads and decodes the spool's meta file.
func LoadMeta(dir string) (Meta, error) {
	var m Meta
	blob, err := os.ReadFile(filepath.Join(dir, MetaFile))
	if err != nil {
		return m, err
	}
	if err := json.Unmarshal(blob, &m); err != nil {
		return m, fmt.Errorf("spool: %s: %w", MetaFile, err)
	}
	if m.Version != Version {
		return m, fmt.Errorf("spool: %s: format version %d, this build reads version %d", MetaFile, m.Version, Version)
	}
	if m.Shards < 1 {
		return m, fmt.Errorf("spool: %s: shards = %d", MetaFile, m.Shards)
	}
	return m, nil
}

// ShardState is the verification result for one shard: how much of the
// file is a valid frame sequence and what, if anything, is wrong with
// the tail. ValidBytes < SizeBytes with a non-empty Tail is the
// signature of a crash mid-write — everything before ValidBytes is
// intact and recoverable.
type ShardState struct {
	Index      int    `json:"index"`
	Path       string `json:"path"`
	SizeBytes  int64  `json:"size_bytes"`
	ValidBytes int64  `json:"valid_bytes"`
	Frames     int64  `json:"frames"`
	Records    int64  `json:"records"`
	Tail       string `json:"tail,omitempty"` // "" when the shard ends cleanly
}

// Replay streams every record in the valid prefix of every shard to fn
// (shard order, frame order within a shard; fn may be nil to only
// verify). Format corruption is not an error — it is reported in the
// shard's Tail and scanning of that shard stops at the last good
// frame. The error return is reserved for I/O failures, a missing or
// malformed meta file, and fn's own errors: the first non-nil error fn
// returns stops the replay at once, no record is delivered after it,
// and Replay returns it unchanged (as filepath.WalkDir does).
func Replay(dir string, fn func(root int32, L, R []int32) error) ([]ShardState, error) {
	meta, err := LoadMeta(dir)
	if err != nil {
		return nil, err
	}
	states := make([]ShardState, 0, meta.Shards)
	for i := 0; i < meta.Shards; i++ {
		st, err := replayShard(dir, i, fn)
		if err != nil {
			return states, err
		}
		states = append(states, st)
	}
	return states, nil
}

// Verify is Replay without a record consumer: it still decodes every
// frame (CRC and record-structure checks), reporting per-shard state.
func Verify(dir string) ([]ShardState, error) { return Replay(dir, nil) }

// Clean returns nil when every shard ends at a frame boundary with no
// tail corruption, else an error naming the first dirty shard.
func Clean(states []ShardState) error {
	for _, st := range states {
		if st.Tail != "" {
			return fmt.Errorf("spool: %s: %s (valid prefix %d of %d bytes)",
				st.Path, st.Tail, st.ValidBytes, st.SizeBytes)
		}
	}
	return nil
}

func replayShard(dir string, idx int, fn func(root int32, L, R []int32) error) (ShardState, error) {
	st := ShardState{Index: idx, Path: filepath.Join(dir, ShardName(idx))}
	f, err := os.Open(st.Path)
	if err != nil {
		if os.IsNotExist(err) {
			// A crash between meta creation and shard creation, or a
			// shard deleted out from under us: treat as empty-with-tail
			// rather than a hard error so Verify can report it.
			st.Tail = "missing shard file"
			return st, nil
		}
		return st, err
	}
	defer f.Close()
	if info, err := f.Stat(); err == nil {
		st.SizeBytes = info.Size()
	}
	frames, records, valid, tailErr, ioErr := scanFrames(bufio.NewReaderSize(f, 1<<20), fn)
	st.Frames, st.Records, st.ValidBytes = frames, records, valid
	if tailErr != nil {
		st.Tail = tailErr.Error()
	}
	return st, ioErr
}

// scanFrames walks a frame sequence, streaming records to fn (which may
// be nil). It returns the frame/record counts and byte length of the
// valid prefix, a tail error describing why scanning stopped short (nil
// for a clean end), and an I/O error for real read failures or the
// first error fn returned, which stops the scan.
//
// This is the function the fuzz target drives: for arbitrary input it
// must never panic and never allocate beyond the frame bound.
func scanFrames(br *bufio.Reader, fn func(root int32, L, R []int32) error) (frames, records, validBytes int64, tailErr, ioErr error) {
	var (
		hdr     [frameHeaderSize]byte
		stored  []byte
		raw     []byte
		l, r    []int32
		flateRd io.ReadCloser
		fnErr   error
	)
	emit := func(root int32, L, R []int32) error {
		records++
		if fn != nil {
			fnErr = fn(root, L, R)
		}
		return fnErr
	}
	for {
		if _, err := io.ReadFull(br, hdr[:1]); err != nil {
			if err == io.EOF {
				return frames, records, validBytes, nil, nil // clean end
			}
			return frames, records, validBytes, nil, err
		}
		if _, err := io.ReadFull(br, hdr[1:]); err != nil {
			if err == io.EOF || err == io.ErrUnexpectedEOF {
				return frames, records, validBytes, fmt.Errorf("%w: partial header", errTruncated), nil
			}
			return frames, records, validBytes, nil, err
		}
		if !bytes.Equal(hdr[:4], frameMagic) {
			return frames, records, validBytes, errBadMagic, nil
		}
		flags := hdr[4]
		if flags&^byte(flagCompressed) != 0 {
			return frames, records, validBytes, fmt.Errorf("spool: unknown frame flags %#02x", flags), nil
		}
		plen := binary.LittleEndian.Uint32(hdr[5:9])
		if plen > MaxFramePayload {
			return frames, records, validBytes, errTooLarge, nil
		}
		wantCRC := binary.LittleEndian.Uint32(hdr[9:13])

		if cap(stored) < int(plen) {
			stored = make([]byte, plen)
		}
		stored = stored[:plen]
		if _, err := io.ReadFull(br, stored); err != nil {
			if err == io.EOF || err == io.ErrUnexpectedEOF {
				return frames, records, validBytes, fmt.Errorf("%w: payload cut short", errTruncated), nil
			}
			return frames, records, validBytes, nil, err
		}
		if crc32.Checksum(stored, crcTable) != wantCRC {
			return frames, records, validBytes, errBadCRC, nil
		}

		payload := stored
		if flags&flagCompressed != 0 {
			var err error
			raw, flateRd, err = inflate(raw, stored, flateRd)
			if err != nil {
				return frames, records, validBytes, err, nil
			}
			payload = raw
		}
		var err error
		l, r, err = decodePayload(payload, l, r, emit)
		if fnErr != nil {
			return frames, records, validBytes, nil, fnErr
		}
		if err != nil {
			return frames, records, validBytes, err, nil
		}
		frames++
		validBytes += int64(frameHeaderSize) + int64(plen)
	}
}

// inflate decompresses stored into dst (reused across frames), bounding
// the output at MaxFramePayload so a corrupt-but-CRC-valid frame (or a
// fuzz input) cannot balloon memory.
func inflate(dst, stored []byte, rd io.ReadCloser) ([]byte, io.ReadCloser, error) {
	src := bytes.NewReader(stored)
	if rd == nil {
		rd = flate.NewReader(src)
	} else if err := rd.(flate.Resetter).Reset(src, nil); err != nil {
		return dst, rd, err
	}
	dst = dst[:0]
	if cap(dst) == 0 {
		dst = make([]byte, 0, 64<<10)
	}
	var chunk [32 << 10]byte
	for {
		n, err := rd.Read(chunk[:])
		if len(dst)+n > MaxFramePayload {
			return dst, rd, errTooLarge
		}
		dst = append(dst, chunk[:n]...)
		if err == io.EOF {
			return dst, rd, nil
		}
		if err != nil {
			return dst, rd, fmt.Errorf("%w: %v", errBadPayload, err)
		}
	}
}

// TotalRecords sums the record counts of a verification result.
func TotalRecords(states []ShardState) int64 {
	var n int64
	for _, st := range states {
		n += st.Records
	}
	return n
}

// IsSpool checks whether dir looks like a spool directory.
func IsSpool(dir string) bool {
	_, err := os.Stat(filepath.Join(dir, MetaFile))
	return err == nil
}
