package spool

import (
	"bufio"
	"bytes"
	"os"
	"path/filepath"
	"slices"
	"testing"
)

// FuzzSpoolFrame drives the frame scanner — the exact code that parses
// untrusted bytes on every resume and every `mbe cat` — with arbitrary
// input. The invariants: never panic, never report more valid bytes
// than exist, and only ever deliver well-formed records (non-empty,
// strictly ascending sides). Allocation is bounded by construction
// (payload length is capped and side lengths are validated against the
// remaining payload before allocating), so a run under the fuzzer's
// memory limit doubles as an over-allocation check.
func FuzzSpoolFrame(f *testing.F) {
	// Seed corpus: real shards produced by the writer (plain and
	// compressed), their truncations, and a bit-flipped variant — the
	// corpus starts on the format's happy path so mutation explores the
	// boundary instead of random noise.
	for _, compress := range []bool{false, true} {
		dir := f.TempDir()
		w, err := Create(dir, Meta{Version: 1, Ordering: "asc", Shards: 1, Compress: compress}, WriterOptions{TargetFrameBytes: 64})
		if err != nil {
			f.Fatal(err)
		}
		for i := int32(0); i < 64; i++ {
			w.Emit(0, i/3, []int32{i, i + 2, i + 40}, []int32{i % 7, i + 100})
		}
		if err := w.Close(); err != nil {
			f.Fatal(err)
		}
		blob, err := os.ReadFile(filepath.Join(dir, ShardName(0)))
		if err != nil {
			f.Fatal(err)
		}
		f.Add(blob)
		f.Add(blob[:len(blob)/2])
		f.Add(blob[:frameHeaderSize-1])
		flipped := append([]byte(nil), blob...)
		flipped[len(flipped)/2] ^= 0x40
		f.Add(flipped)
	}
	f.Add([]byte{})
	f.Add([]byte("MBS1"))
	// A header declaring a huge payload with nothing behind it.
	f.Add(append([]byte("MBS1\x00\xff\xff\xff\x00"), 0, 0, 0, 0))

	f.Fuzz(func(t *testing.T, data []byte) {
		var records int64
		frames, nrec, valid, _, ioErr := scanFrames(bufio.NewReader(bytes.NewReader(data)), func(root int32, L, R []int32) error {
			records++
			if len(L) == 0 || len(R) == 0 {
				t.Fatalf("empty side delivered: L=%v R=%v", L, R)
			}
			if !slices.IsSorted(L) || !slices.IsSorted(R) {
				t.Fatalf("unsorted side delivered: L=%v R=%v", L, R)
			}
			return nil
		})
		if ioErr != nil {
			t.Fatalf("bytes.Reader cannot fail, got I/O error %v", ioErr)
		}
		if nrec != records {
			t.Fatalf("scanner counted %d records, delivered %d", nrec, records)
		}
		if valid < 0 || valid > int64(len(data)) {
			t.Fatalf("valid prefix %d outside [0, %d]", valid, len(data))
		}
		if frames < 0 || (frames == 0 && nrec != 0) {
			t.Fatalf("records without frames: frames=%d records=%d", frames, nrec)
		}
	})
}

// TestFuzzSeedsParse keeps the happy-path seed honest outside fuzz
// mode: an intact writer-produced shard must scan cleanly end to end.
func TestFuzzSeedsParse(t *testing.T) {
	dir := t.TempDir()
	w, err := Create(dir, Meta{Version: 1, Ordering: "asc", Shards: 1, Compress: true}, WriterOptions{TargetFrameBytes: 64})
	if err != nil {
		t.Fatal(err)
	}
	for i := int32(0); i < 64; i++ {
		w.Emit(0, i, []int32{i}, []int32{i + 1})
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	blob, err := os.ReadFile(filepath.Join(dir, ShardName(0)))
	if err != nil {
		t.Fatal(err)
	}
	_, nrec, valid, tailErr, ioErr := scanFrames(bufio.NewReader(bytes.NewReader(blob)), nil)
	if tailErr != nil || ioErr != nil {
		t.Fatalf("clean shard reported tail=%v io=%v", tailErr, ioErr)
	}
	if nrec != 64 || valid != int64(len(blob)) {
		t.Fatalf("scanned %d records over %d bytes, want 64 over %d", nrec, valid, len(blob))
	}
}
