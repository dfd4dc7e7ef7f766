package spool

import (
	"bytes"
	"compress/flate"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"sync/atomic"
)

// Stats is a snapshot of the writer's cumulative counters. All fields
// count bytes/frames/records handed to the OS (flushed frames), not
// records still buffered in open frames.
type Stats struct {
	Bytes   int64 `json:"bytes"`
	Frames  int64 `json:"frames"`
	Records int64 `json:"records"`
	Fsyncs  int64 `json:"fsyncs"`
}

// WriterOptions configures a spool Writer.
type WriterOptions struct {
	Fsync FsyncMode
	// TargetFrameBytes is the payload size at which an open frame is
	// cut. 0 means DefaultFrameBytes.
	TargetFrameBytes int
	// WrapShard, when non-nil, wraps each shard's underlying writer.
	// This is the fault-injection seam: tests interpose write errors and
	// short writes between the frame assembler and the file.
	WrapShard func(shard int, w io.Writer) io.Writer
	// OnError is invoked at most once, from whichever Emit/Sync first
	// hits a write error. Runs use it to cancel enumeration promptly
	// instead of churning out bicliques a broken spool silently drops.
	OnError func(error)
}

// Writer is the sharded spool sink. Emit routes each biclique to the
// shard owned by its worker, so concurrent workers never contend on a
// shared lock; the per-shard mutex exists only to serialize the owning
// worker against checkpoint-time SyncAll.
//
// Writes are sticky-failing: after the first error the writer goes
// inert (Emit becomes a no-op) and Err reports the cause. Nothing
// already flushed is lost — the durable prefix stays readable.
type Writer struct {
	dir    string
	meta   Meta
	opts   WriterOptions
	target int
	shards []*shardWriter

	errOnce sync.Once
	err     atomic.Pointer[error]

	bytes, frames, records, fsyncs atomic.Int64
}

type shardWriter struct {
	mu     sync.Mutex
	parent *Writer
	idx    int
	f      *os.File
	w      io.Writer // f, possibly wrapped by WrapShard

	recBuf   []byte // encoded records of the open frame
	nrec     uint64
	prevRoot int32
	offset   int64 // bytes of complete frames handed to w

	sortL, sortR []int32
	frameBuf     []byte
	flateW       *flate.Writer
	flateBuf     bytes.Buffer
}

// Create initializes a fresh spool directory: writes the meta file,
// stamped with Version, and creates meta.Shards empty shard files. It
// refuses to reuse a directory that already holds a spool.
func Create(dir string, meta Meta, opts WriterOptions) (*Writer, error) {
	if meta.Shards < 1 {
		return nil, fmt.Errorf("spool: meta.Shards = %d, want >= 1", meta.Shards)
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	metaPath := filepath.Join(dir, MetaFile)
	if _, err := os.Stat(metaPath); err == nil {
		return nil, fmt.Errorf("spool: %s already holds a spool (resume instead of creating)", dir)
	}
	meta.Version = Version
	blob, err := json.MarshalIndent(meta, "", "  ")
	if err != nil {
		return nil, err
	}
	durable := opts.Fsync != FsyncNever
	if err := AtomicWriteFile(metaPath, append(blob, '\n'), durable); err != nil {
		return nil, err
	}
	w := &Writer{dir: dir, meta: meta, opts: opts, target: opts.TargetFrameBytes}
	if w.target <= 0 {
		w.target = DefaultFrameBytes
	}
	for i := 0; i < meta.Shards; i++ {
		f, err := os.OpenFile(filepath.Join(dir, ShardName(i)), os.O_CREATE|os.O_EXCL|os.O_WRONLY, 0o644)
		if err != nil {
			w.closeFiles()
			return nil, err
		}
		w.shards = append(w.shards, newShardWriter(w, i, f, 0))
	}
	return w, nil
}

// OpenAppend reopens an existing spool's shards for appending. The
// caller (internal/ckpt) is responsible for first compacting the shards
// so every file ends at a frame boundary with only wanted records.
func OpenAppend(dir string, opts WriterOptions) (*Writer, error) {
	meta, err := LoadMeta(dir)
	if err != nil {
		return nil, err
	}
	w := &Writer{dir: dir, meta: meta, opts: opts, target: opts.TargetFrameBytes}
	if w.target <= 0 {
		w.target = DefaultFrameBytes
	}
	for i := 0; i < meta.Shards; i++ {
		f, err := os.OpenFile(filepath.Join(dir, ShardName(i)), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			w.closeFiles()
			return nil, err
		}
		st, err := f.Stat()
		if err != nil {
			f.Close()
			w.closeFiles()
			return nil, err
		}
		w.shards = append(w.shards, newShardWriter(w, i, f, st.Size()))
	}
	return w, nil
}

func newShardWriter(w *Writer, idx int, f *os.File, offset int64) *shardWriter {
	s := &shardWriter{parent: w, idx: idx, f: f, w: f, offset: offset}
	if w.opts.WrapShard != nil {
		s.w = w.opts.WrapShard(idx, f)
	}
	if w.meta.Compress {
		s.flateW, _ = flate.NewWriter(io.Discard, flate.BestSpeed)
	}
	return s
}

// Meta returns the spool's identity record.
func (w *Writer) Meta() Meta { return w.meta }

// Shards returns the shard count (the worker→shard routing modulus).
func (w *Writer) Shards() int { return len(w.shards) }

// Emit appends one biclique to worker's shard. Sides are copied (and
// sorted if needed) before encoding, so the caller may reuse its
// slices immediately — the same contract as an OnBiclique handler.
// After the first write error Emit is a no-op; see Err.
func (w *Writer) Emit(worker int, root int32, L, R []int32) {
	if w.err.Load() != nil {
		return
	}
	s := w.shards[worker%len(w.shards)]
	s.mu.Lock()
	defer s.mu.Unlock()
	s.sortL = sortedCopy(s.sortL, L)
	s.sortR = sortedCopy(s.sortR, R)
	s.recBuf = appendRecord(s.recBuf, root-s.prevRoot, s.sortL, s.sortR)
	s.prevRoot = root
	s.nrec++
	if len(s.recBuf) >= s.parent.target {
		s.flushLocked()
	}
}

func sortedCopy(dst, src []int32) []int32 {
	dst = append(dst[:0], src...)
	if !slices.IsSorted(dst) {
		slices.Sort(dst)
	}
	return dst
}

// flushLocked cuts the open frame and writes it to the shard file.
// Caller holds s.mu.
func (s *shardWriter) flushLocked() {
	if s.nrec == 0 {
		return
	}
	w := s.parent
	payload := binary.AppendUvarint(s.frameBuf[:0], s.nrec)
	payload = append(payload, s.recBuf...)
	s.frameBuf = payload
	if len(payload) > MaxFramePayload {
		w.fail(fmt.Errorf("%w: %d bytes in one frame (a single biclique record may not exceed %d bytes)",
			errTooLarge, len(payload), MaxFramePayload))
		return
	}

	stored := payload
	flags := byte(0)
	if s.flateW != nil {
		s.flateBuf.Reset()
		s.flateW.Reset(&s.flateBuf)
		if _, err := s.flateW.Write(payload); err == nil && s.flateW.Close() == nil {
			if s.flateBuf.Len() < len(payload) {
				stored = s.flateBuf.Bytes()
				flags = flagCompressed
			}
		}
	}

	var hdr [frameHeaderSize]byte
	copy(hdr[:4], frameMagic)
	hdr[4] = flags
	binary.LittleEndian.PutUint32(hdr[5:9], uint32(len(stored)))
	binary.LittleEndian.PutUint32(hdr[9:13], crc32.Checksum(stored, crcTable))

	if err := writeFull(s.w, hdr[:]); err != nil {
		w.fail(err)
		return
	}
	if err := writeFull(s.w, stored); err != nil {
		w.fail(err)
		return
	}
	n := int64(frameHeaderSize + len(stored))
	s.offset += n
	w.bytes.Add(n)
	w.frames.Add(1)
	w.records.Add(int64(s.nrec))
	s.recBuf = s.recBuf[:0]
	s.nrec = 0
	s.prevRoot = 0

	if w.opts.Fsync == FsyncAlways {
		if err := s.f.Sync(); err != nil {
			w.fail(err)
			return
		}
		w.fsyncs.Add(1)
	}
}

func writeFull(w io.Writer, p []byte) error {
	n, err := w.Write(p)
	if err == nil && n < len(p) {
		err = io.ErrShortWrite
	}
	return err
}

// SyncAll cuts every shard's open frame and, unless the mode is
// FsyncNever, fsyncs the shard files. It returns the per-shard frame
// boundary offsets that are now durable — exactly what a checkpoint
// records. Returns the writer's sticky error if any write has failed.
func (w *Writer) SyncAll() ([]int64, error) {
	offsets := make([]int64, len(w.shards))
	for i, s := range w.shards {
		s.mu.Lock()
		s.flushLocked()
		if w.err.Load() == nil && w.opts.Fsync != FsyncNever {
			if err := s.f.Sync(); err != nil {
				w.fail(err)
			} else {
				w.fsyncs.Add(1)
			}
		}
		offsets[i] = s.offset
		s.mu.Unlock()
	}
	return offsets, w.Err()
}

// Stats snapshots the cumulative flushed-output counters. Safe to call
// concurrently with Emit (it is the observability hook).
func (w *Writer) Stats() Stats {
	return Stats{
		Bytes:   w.bytes.Load(),
		Frames:  w.frames.Load(),
		Records: w.records.Load(),
		Fsyncs:  w.fsyncs.Load(),
	}
}

// Err reports the first write/sync error, or nil.
func (w *Writer) Err() error {
	if p := w.err.Load(); p != nil {
		return *p
	}
	return nil
}

func (w *Writer) fail(err error) {
	w.errOnce.Do(func() {
		w.err.Store(&err)
		if w.opts.OnError != nil {
			w.opts.OnError(err)
		}
	})
}

// Close flushes and syncs all shards, then closes the files. The
// returned error is the sticky write error if one occurred, else the
// first sync/close error.
func (w *Writer) Close() error {
	_, err := w.SyncAll()
	if cerr := w.closeFiles(); err == nil {
		err = cerr
	}
	return err
}

func (w *Writer) closeFiles() error {
	var first error
	for _, s := range w.shards {
		if s.f != nil {
			if err := s.f.Close(); err != nil && first == nil {
				first = err
			}
			s.f = nil
		}
	}
	return first
}

// AtomicWriteFile writes blob to path via a temp file + rename, with an
// fsync of the file (and, when durable, the containing directory) so a
// crash can never leave a half-written file under the final name.
func AtomicWriteFile(path string, blob []byte, durable bool) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, filepath.Base(path)+".tmp*")
	if err != nil {
		return err
	}
	tmpName := tmp.Name()
	cleanup := func(err error) error {
		tmp.Close()
		os.Remove(tmpName)
		return err
	}
	if _, err := tmp.Write(blob); err != nil {
		return cleanup(err)
	}
	if durable {
		if err := tmp.Sync(); err != nil {
			return cleanup(err)
		}
	}
	if err := tmp.Close(); err != nil {
		return cleanup(err)
	}
	if err := os.Rename(tmpName, path); err != nil {
		os.Remove(tmpName)
		return err
	}
	if durable {
		if d, err := os.Open(dir); err == nil {
			d.Sync()
			d.Close()
		}
	}
	return nil
}
