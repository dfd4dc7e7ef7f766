package spool

import (
	"bufio"
	"bytes"
	"compress/flate"
	"encoding/binary"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
)

// CompactBelow rewrites every shard in place, keeping only records
// whose root satisfies keep (nil keeps everything) and discarding any
// corrupt tail. Each shard is rewritten to a temp file that is fsynced
// and renamed over the original, so a crash mid-compaction leaves
// either the old shard or the new one — never a mix.
//
// This is the first step of a resume: the checkpoint watermark W
// promises every root < W is completely enumerated, but under
// unordered sharded emission the durable prefix also interleaves
// partial output from roots ≥ W that were in flight at the crash.
// Compacting with keep = (root < W) deletes exactly those partial
// subtrees; re-enumerating from W then reproduces them in full, with
// zero duplicates.
func CompactBelow(dir string, keep func(root int32) bool) error {
	meta, err := LoadMeta(dir)
	if err != nil {
		return err
	}
	for i := 0; i < meta.Shards; i++ {
		if err := compactShard(dir, i, meta, keep); err != nil {
			return err
		}
	}
	if d, err := os.Open(dir); err == nil {
		d.Sync()
		d.Close()
	}
	return nil
}

func compactShard(dir string, idx int, meta Meta, keep func(int32) bool) error {
	dst := filepath.Join(dir, ShardName(idx))
	tmp, err := os.CreateTemp(dir, ShardName(idx)+".compact*")
	if err != nil {
		return err
	}
	tmpName := tmp.Name()
	abort := func(err error) error {
		tmp.Close()
		os.Remove(tmpName)
		return err
	}

	bw := bufio.NewWriterSize(tmp, 1<<20)
	enc := newFrameEncoder(bw, meta.Compress, meta.FrameBytes)
	_, err = replayShard(dir, idx, func(root int32, L, R []int32) error {
		if keep == nil || keep(root) {
			enc.add(root, L, R)
		}
		return nil
	})
	if err != nil {
		return abort(err)
	}
	if err := enc.flush(); err != nil {
		return abort(err)
	}
	if err := bw.Flush(); err != nil {
		return abort(err)
	}
	if err := tmp.Sync(); err != nil {
		return abort(err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmpName)
		return err
	}
	if err := os.Rename(tmpName, dst); err != nil {
		os.Remove(tmpName)
		return err
	}
	return nil
}

// frameEncoder re-frames a record stream: the compaction-side twin of
// shardWriter, minus the concurrency, fault-injection, and stats
// concerns of the live write path. Records arrive pre-sorted (they come
// from the decoder, which enforces strictly ascending sides).
type frameEncoder struct {
	w        io.Writer
	target   int
	recBuf   []byte
	nrec     uint64
	prevRoot int32
	frameBuf []byte
	flateW   *flate.Writer
	flateBuf bytes.Buffer
	err      error
}

func newFrameEncoder(w io.Writer, compress bool, frameBytes int) *frameEncoder {
	e := &frameEncoder{w: w, target: frameBytes}
	if e.target <= 0 {
		e.target = DefaultFrameBytes
	}
	if compress {
		e.flateW, _ = flate.NewWriter(io.Discard, flate.BestSpeed)
	}
	return e
}

func (e *frameEncoder) add(root int32, L, R []int32) {
	if e.err != nil {
		return
	}
	e.recBuf = appendRecord(e.recBuf, root-e.prevRoot, L, R)
	e.prevRoot = root
	e.nrec++
	if len(e.recBuf) >= e.target {
		e.err = e.flush()
	}
}

func (e *frameEncoder) flush() error {
	if e.err != nil {
		return e.err
	}
	if e.nrec == 0 {
		return nil
	}
	payload := binary.AppendUvarint(e.frameBuf[:0], e.nrec)
	payload = append(payload, e.recBuf...)
	e.frameBuf = payload

	stored := payload
	flags := byte(0)
	if e.flateW != nil {
		e.flateBuf.Reset()
		e.flateW.Reset(&e.flateBuf)
		if _, err := e.flateW.Write(payload); err == nil && e.flateW.Close() == nil {
			if e.flateBuf.Len() < len(payload) {
				stored = e.flateBuf.Bytes()
				flags = flagCompressed
			}
		}
	}

	var hdr [frameHeaderSize]byte
	copy(hdr[:4], frameMagic)
	hdr[4] = flags
	binary.LittleEndian.PutUint32(hdr[5:9], uint32(len(stored)))
	binary.LittleEndian.PutUint32(hdr[9:13], crc32.Checksum(stored, crcTable))
	if err := writeFull(e.w, hdr[:]); err != nil {
		return err
	}
	if err := writeFull(e.w, stored); err != nil {
		return err
	}
	e.recBuf = e.recBuf[:0]
	e.nrec = 0
	e.prevRoot = 0
	return nil
}
