package ckpt

import (
	"os"
	"path/filepath"
	"testing"

	"repro/internal/spool"
)

func sessionMeta() spool.Meta {
	return spool.Meta{
		Version: 1, Tool: "ckpt_test", Algorithm: "AdaMBE", Ordering: "asc",
		Shards: 2, NU: 6, NV: 10, Edges: 30, GraphHash: "0123456789abcdef",
	}
}

// replayRoots reads back the spool as a multiset of root tags.
func replayRoots(t *testing.T, dir string) map[int32]int {
	t.Helper()
	got := map[int32]int{}
	states, err := spool.Replay(dir, func(root int32, L, R []int32) error {
		got[root]++
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := spool.Clean(states); err != nil {
		t.Fatal(err)
	}
	return got
}

// TestSessionInterruptResumeComplete walks the full durable-run
// lifecycle by hand: enumerate roots 0..4, emit a partial subtree of
// root 5, interrupt; resume (partial root-5 output must be compacted
// away, start at the watermark); finish roots 5..9; verify the spool
// holds each root's output exactly once; then check a further resume is
// a no-op.
func TestSessionInterruptResumeComplete(t *testing.T) {
	dir := t.TempDir()
	meta := sessionMeta()

	sess, err := Open(OpenOptions{Dir: dir, Meta: meta, Every: -1})
	if err != nil {
		t.Fatal(err)
	}
	if sess.AlreadyComplete() || sess.StartRoot() != 0 {
		t.Fatalf("fresh session: complete=%v start=%d", sess.AlreadyComplete(), sess.StartRoot())
	}
	sink := sess.Sink(nil, 2)
	fr := sess.Frontier()
	for r := int32(0); r < 5; r++ {
		sink.Emit(int(r)%2, r, []int32{r}, []int32{r + 1, r + 2})
		sink.Emit(int(r)%2, r, []int32{r, r + 1}, []int32{r + 3})
		finishRoot(fr, r)
	}
	// Root 5 was mid-flight at the interrupt: begun, one emission, never
	// ended.
	fr.Begin(5)
	sink.Emit(1, 5, []int32{5}, []int32{6})
	if err := sess.Finish(false); err != nil {
		t.Fatalf("interrupted Finish: %v", err)
	}

	ck, found, err := Load(dir)
	if err != nil || !found {
		t.Fatalf("checkpoint after interrupt: %v found=%v", err, found)
	}
	if ck.Watermark != 5 || ck.Complete {
		t.Fatalf("checkpoint = %+v, want watermark 5, incomplete", ck)
	}

	// Resume: compaction drops root 5's partial emission.
	sess2, err := Open(OpenOptions{Dir: dir, Meta: meta, Resume: true, Every: -1})
	if err != nil {
		t.Fatal(err)
	}
	if sess2.AlreadyComplete() {
		t.Fatal("incomplete spool reported AlreadyComplete")
	}
	if sess2.StartRoot() != 5 {
		t.Fatalf("resume start = %d, want 5", sess2.StartRoot())
	}
	roots := replayRoots(t, dir)
	if roots[5] != 0 {
		t.Fatalf("partial root-5 output survived compaction: %v", roots)
	}
	for r := int32(0); r < 5; r++ {
		if roots[r] != 2 {
			t.Fatalf("root %d has %d records after compaction, want 2", r, roots[r])
		}
	}

	sink2 := sess2.Sink(nil, 2)
	fr2 := sess2.Frontier()
	for r := int32(5); r < 10; r++ {
		sink2.Emit(int(r)%2, r, []int32{r}, []int32{r + 1, r + 2})
		sink2.Emit(int(r)%2, r, []int32{r, r + 1}, []int32{r + 3})
		finishRoot(fr2, r)
	}
	if err := sess2.Finish(true); err != nil {
		t.Fatalf("final Finish: %v", err)
	}
	ck, found, err = Load(dir)
	if err != nil || !found || !ck.Complete || ck.Watermark != 10 {
		t.Fatalf("final checkpoint = %+v (found=%v err=%v), want complete at 10", ck, found, err)
	}
	roots = replayRoots(t, dir)
	for r := int32(0); r < 10; r++ {
		if roots[r] != 2 {
			t.Fatalf("root %d emitted %d times, want exactly 2 (no dupes, no drops)", r, roots[r])
		}
	}

	// Resuming a complete spool is a no-op.
	sess3, err := Open(OpenOptions{Dir: dir, Meta: meta, Resume: true, Every: -1})
	if err != nil {
		t.Fatal(err)
	}
	if !sess3.AlreadyComplete() {
		t.Fatal("complete spool must report AlreadyComplete")
	}
	if err := sess3.Finish(true); err != nil {
		t.Fatalf("Finish on AlreadyComplete session: %v", err)
	}
}

// TestSessionFinishIncompleteFrontier: claiming complete=true while the
// frontier is not actually done must downgrade to an incomplete
// checkpoint — the complete flag is verified, not trusted.
func TestSessionFinishIncompleteFrontier(t *testing.T) {
	dir := t.TempDir()
	sess, err := Open(OpenOptions{Dir: dir, Meta: sessionMeta(), Every: -1})
	if err != nil {
		t.Fatal(err)
	}
	finishRoot(sess.Frontier(), 0) // 1 of 10 roots
	if err := sess.Finish(true); err != nil {
		t.Fatal(err)
	}
	ck, _, err := Load(dir)
	if err != nil {
		t.Fatal(err)
	}
	if ck.Complete {
		t.Fatal("checkpoint claims complete with 9 roots unfinished")
	}
	if ck.Watermark != 1 {
		t.Fatalf("watermark = %d, want 1", ck.Watermark)
	}
}

func TestSessionResumeMetaMismatch(t *testing.T) {
	dir := t.TempDir()
	sess, err := Open(OpenOptions{Dir: dir, Meta: sessionMeta(), Every: -1})
	if err != nil {
		t.Fatal(err)
	}
	sess.Finish(false)

	bad := sessionMeta()
	bad.GraphHash = "fedcba9876543210"
	if _, err := Open(OpenOptions{Dir: dir, Meta: bad, Resume: true, Every: -1}); err == nil {
		t.Fatal("resume with a different graph must be refused")
	}
	badOrd := sessionMeta()
	badOrd.Ordering = "rand"
	if _, err := Open(OpenOptions{Dir: dir, Meta: badOrd, Resume: true, Every: -1}); err == nil {
		t.Fatal("resume under a different ordering must be refused")
	}
}

// TestSessionResumeWithoutCheckpoint: a spool whose checkpoint file is
// missing (crash before the first checkpoint landed, or deleted by
// hand) resumes as a from-scratch run — watermark 0, spool emptied.
func TestSessionResumeWithoutCheckpoint(t *testing.T) {
	dir := t.TempDir()
	sess, err := Open(OpenOptions{Dir: dir, Meta: sessionMeta(), Every: -1})
	if err != nil {
		t.Fatal(err)
	}
	sess.Sink(nil, 1).Emit(0, 0, []int32{1}, []int32{2})
	finishRoot(sess.Frontier(), 0)
	if err := sess.Finish(false); err != nil {
		t.Fatal(err)
	}
	if err := os.Remove(filepath.Join(dir, spool.CheckpointFile)); err != nil {
		t.Fatal(err)
	}
	sess2, err := Open(OpenOptions{Dir: dir, Meta: sessionMeta(), Resume: true, Every: -1})
	if err != nil {
		t.Fatal(err)
	}
	if sess2.StartRoot() != 0 {
		t.Fatalf("no-checkpoint resume start = %d, want 0", sess2.StartRoot())
	}
	if roots := replayRoots(t, dir); len(roots) != 0 {
		t.Fatalf("no-checkpoint resume must empty the spool, found %v", roots)
	}
	sess2.Finish(false)
}

// TestSessionCheckpointDurableOffsets: a checkpoint's shard offsets
// must equal the on-disk shard sizes at write time (everything it
// claims is really flushed).
func TestSessionCheckpointDurableOffsets(t *testing.T) {
	dir := t.TempDir()
	sess, err := Open(OpenOptions{Dir: dir, Meta: sessionMeta(), Every: -1})
	if err != nil {
		t.Fatal(err)
	}
	sink := sess.Sink(nil, 2)
	for r := int32(0); r < 4; r++ {
		sink.Emit(int(r)%2, r, []int32{r}, []int32{r + 1})
		finishRoot(sess.Frontier(), r)
	}
	if err := sess.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	ck, _, err := Load(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(ck.ShardOffsets) != 2 {
		t.Fatalf("shard offsets = %v, want 2 entries", ck.ShardOffsets)
	}
	for i, off := range ck.ShardOffsets {
		info, err := os.Stat(filepath.Join(dir, spool.ShardName(i)))
		if err != nil {
			t.Fatal(err)
		}
		if info.Size() != off {
			t.Errorf("shard %d: checkpoint offset %d != file size %d", i, off, info.Size())
		}
	}
	if ck.Seq < 2 { // initial checkpoint + this one
		t.Errorf("checkpoint seq = %d, want >= 2", ck.Seq)
	}
	sess.Finish(false)
}

// TestSessionSinkPermutation: the sink maps R through the run's V
// permutation while the root tag stays in engine order.
func TestSessionSinkPermutation(t *testing.T) {
	dir := t.TempDir()
	meta := sessionMeta()
	meta.NV = 3
	sess, err := Open(OpenOptions{Dir: dir, Meta: meta, Every: -1})
	if err != nil {
		t.Fatal(err)
	}
	perm := []int32{2, 0, 1} // engine id -> original id
	sink := sess.Sink(perm, 1)
	sink.Emit(0, 0, []int32{7}, []int32{0, 2})
	finishRoot(sess.Frontier(), 0)
	finishRoot(sess.Frontier(), 1)
	finishRoot(sess.Frontier(), 2)
	if err := sess.Finish(true); err != nil {
		t.Fatal(err)
	}
	var gotRoot int32 = -1
	var gotR []int32
	states, err := spool.Replay(dir, func(root int32, L, R []int32) error {
		gotRoot = root
		gotR = append([]int32(nil), R...)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := spool.Clean(states); err != nil {
		t.Fatal(err)
	}
	if gotRoot != 0 {
		t.Errorf("root tag = %d, want engine-order 0", gotRoot)
	}
	// engine R {0,2} -> original {2,1}, stored sorted ascending.
	if !eq(gotR, []int32{1, 2}) {
		t.Errorf("stored R = %v, want [1 2]", gotR)
	}
}

func eq(a, b []int32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
