package ckpt

import (
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/spool"
)

// writeInterrupted builds a spool with roots 0..4 done, a partial root-5
// emission, and an incomplete checkpoint at watermark 5 — the state a
// crash mid-run leaves behind.
func writeInterrupted(t *testing.T, dir string) {
	t.Helper()
	sess, err := Open(OpenOptions{Dir: dir, Meta: sessionMeta(), Every: -1})
	if err != nil {
		t.Fatal(err)
	}
	sink := sess.Sink(nil, 2)
	for r := int32(0); r < 5; r++ {
		sink.Emit(int(r)%2, r, []int32{r}, []int32{r + 1, r + 2})
		finishRoot(sess.Frontier(), r)
	}
	sink.Emit(1, 5, []int32{5}, []int32{6})
	if err := sess.Finish(false); err != nil {
		t.Fatal(err)
	}
}

// TestLoadTornCheckpoint truncates checkpoint.json at every byte offset
// (the crash-at-offset sweep): each prefix must either load as the full
// checkpoint (offset == len) or come back as a *CorruptError with ok =
// false — never a different checkpoint, never a hard failure class the
// resume path can't recover from.
func TestLoadTornCheckpoint(t *testing.T) {
	dir := t.TempDir()
	writeInterrupted(t, dir)
	path := filepath.Join(dir, spool.CheckpointFile)
	whole, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	want, ok, err := Load(dir)
	if err != nil || !ok || want.Watermark != 5 {
		t.Fatalf("intact checkpoint: ck=%+v ok=%v err=%v", want, ok, err)
	}
	for off := 0; off < len(whole); off++ {
		if err := os.WriteFile(path, whole[:off], 0o644); err != nil {
			t.Fatal(err)
		}
		ck, ok, err := Load(dir)
		if ok {
			// The only prefixes that still parse are the full document
			// minus trailing whitespace — and those must decode to the
			// same checkpoint, never a different one.
			if !reflect.DeepEqual(ck, want) {
				t.Fatalf("offset %d: truncated checkpoint loaded as a DIFFERENT checkpoint: %+v", off, ck)
			}
			continue
		}
		var corrupt *CorruptError
		if !errors.As(err, &corrupt) {
			t.Fatalf("offset %d: err = %v, want *CorruptError", off, err)
		}
	}
	// Restore and confirm the untruncated file still loads.
	if err := os.WriteFile(path, whole, 0o644); err != nil {
		t.Fatal(err)
	}
	if ck, ok, err := Load(dir); err != nil || !ok || ck.Watermark != 5 {
		t.Fatalf("restored checkpoint: ck=%+v ok=%v err=%v", ck, ok, err)
	}
}

// TestOpenTornCheckpointResumes: Open with Resume over a torn
// checkpoint must degrade to a from-scratch resume (watermark 0, spool
// compacted empty) and report the corruption through OnWarn instead of
// failing the run.
func TestOpenTornCheckpointResumes(t *testing.T) {
	for _, tc := range []struct {
		name string
		mut  func(path string) error
	}{
		{"truncated-half", func(path string) error {
			b, err := os.ReadFile(path)
			if err != nil {
				return err
			}
			return os.WriteFile(path, b[:len(b)/2], 0o644)
		}},
		{"empty", func(path string) error {
			return os.WriteFile(path, nil, 0o644)
		}},
		{"garbage", func(path string) error {
			return os.WriteFile(path, []byte("\x00\xff not json"), 0o644)
		}},
		{"negative-watermark", func(path string) error {
			return os.WriteFile(path, []byte(`{"version":1,"watermark":-3,"seq":1}`), 0o644)
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			writeInterrupted(t, dir)
			if err := tc.mut(filepath.Join(dir, spool.CheckpointFile)); err != nil {
				t.Fatal(err)
			}
			var warned error
			sess, err := Open(OpenOptions{
				Dir: dir, Meta: sessionMeta(), Resume: true, Every: -1,
				OnWarn: func(e error) { warned = e },
			})
			if err != nil {
				t.Fatalf("Open over torn checkpoint failed: %v", err)
			}
			if warned == nil {
				t.Error("torn checkpoint resumed without an OnWarn")
			}
			if sess.StartRoot() != 0 {
				t.Errorf("start = %d, want from-scratch 0", sess.StartRoot())
			}
			// Degrading to watermark 0 compacts everything away; the
			// re-run then reproduces the full output exactly once.
			if roots := replayRoots(t, dir); len(roots) != 0 {
				t.Errorf("spool not emptied on from-scratch resume: %v", roots)
			}
			sink := sess.Sink(nil, 2)
			for r := int32(0); r < 10; r++ {
				sink.Emit(int(r)%2, r, []int32{r}, []int32{r + 1})
				finishRoot(sess.Frontier(), r)
			}
			if err := sess.Finish(true); err != nil {
				t.Fatal(err)
			}
			roots := replayRoots(t, dir)
			for r := int32(0); r < 10; r++ {
				if roots[r] != 1 {
					t.Fatalf("root %d emitted %d times after torn-checkpoint recovery, want 1", r, roots[r])
				}
			}
		})
	}
}
