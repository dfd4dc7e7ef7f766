package spool

import (
	"bufio"
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
	enc := newFrameEncoder(bw, meta.Compress, 0)
	_, err = replayShard(dir, idx, func(root int32, L, R []int32) error {
		if keep == nil || keep(root) {
			return enc.add(root, L, R)
		}
		return nil
	})
	if err != nil {
		return abort(err)
	}
	if err := enc.cut(); err != nil {
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
