package spool

import (
	"bytes"
	"crypto/sha256"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime/debug"
	"slices"
	"sync"
	"testing"

	"repro/internal/gen"
)

func testMeta(shards int, compress bool) Meta {
	return Meta{
		Version: 1, Tool: "spool_test", Algorithm: "AdaMBE", Ordering: "asc",
		Shards: shards, NU: 10, NV: 10, Edges: 20, GraphHash: "deadbeefcafef00d",
		Compress: compress,
	}
}

type rec struct {
	root int32
	L, R []int32
}

func collect(t *testing.T, dir string) ([]rec, []ShardState) {
	t.Helper()
	var out []rec
	states, err := Replay(dir, func(root int32, L, R []int32) error {
		out = append(out, rec{root, append([]int32(nil), L...), append([]int32(nil), R...)})
		return nil
	})
	if err != nil {
		t.Fatalf("Replay: %v", err)
	}
	return out, states
}

func eqSlice(a, b []int32) bool {
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

func TestRoundTrip(t *testing.T) {
	dir := t.TempDir()
	w, err := Create(dir, testMeta(2, false), WriterOptions{})
	if err != nil {
		t.Fatal(err)
	}
	// Unsorted sides: the writer canonicalizes to ascending.
	w.Emit(0, 0, []int32{3, 1, 2}, []int32{9, 0})
	w.Emit(1, 0, []int32{5}, []int32{7})
	w.Emit(0, 2, []int32{4}, []int32{2, 8, 5})
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	recs, states := collect(t, dir)
	if err := Clean(states); err != nil {
		t.Fatalf("expected clean shards: %v", err)
	}
	if len(recs) != 3 {
		t.Fatalf("got %d records, want 3", len(recs))
	}
	// Shard 0 (worker 0) replays first, in emission order, sides sorted.
	want := []rec{
		{0, []int32{1, 2, 3}, []int32{0, 9}},
		{2, []int32{4}, []int32{2, 5, 8}},
		{0, []int32{5}, []int32{7}},
	}
	for i, r := range recs {
		if r.root != want[i].root || !eqSlice(r.L, want[i].L) || !eqSlice(r.R, want[i].R) {
			t.Errorf("record %d = %+v, want %+v", i, r, want[i])
		}
	}
	if n := TotalRecords(states); n != 3 {
		t.Errorf("TotalRecords = %d, want 3", n)
	}
	st := w.Stats()
	if st.Records != 3 || st.Frames == 0 || st.Bytes == 0 {
		t.Errorf("writer stats = %+v", st)
	}
}

// TestEmitLeavesCallerSides: Emit never writes to the caller's slices.
// Sides that are already ascending are encoded in place and unsorted ones
// through a sorted copy, and both replay sorted. The shard bytes equal
// those of the same records emitted pre-sorted, and a pinned digest, so a
// writer change that alters the encoding of existing records fails here.
func TestEmitLeavesCallerSides(t *testing.T) {
	rng := rand.New(rand.NewSource(27))
	var recs []rec
	for i := 0; i < 400; i++ {
		side := func() []int32 {
			ids := rng.Perm(300)[:1+rng.Intn(40)]
			s := make([]int32, len(ids))
			for j, id := range ids {
				s[j] = int32(id)
			}
			if rng.Intn(2) == 0 {
				slices.Sort(s)
			}
			return s
		}
		recs = append(recs, rec{int32(i / 3), side(), side()})
	}
	write := func(presort bool) []byte {
		dir := t.TempDir()
		w, err := Create(dir, testMeta(1, false), WriterOptions{TargetFrameBytes: 512})
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range recs {
			L, R := slices.Clone(r.L), slices.Clone(r.R)
			if presort {
				slices.Sort(L)
				slices.Sort(R)
			}
			w.Emit(0, r.root, L, R)
			if !presort && (!eqSlice(L, r.L) || !eqSlice(R, r.R)) {
				t.Fatalf("Emit rewrote the caller's sides: L %v → %v, R %v → %v", r.L, L, r.R, R)
			}
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		got, _ := collect(t, dir)
		if len(got) != len(recs) {
			t.Fatalf("replayed %d records, want %d", len(got), len(recs))
		}
		for i, g := range got {
			L, R := slices.Clone(recs[i].L), slices.Clone(recs[i].R)
			slices.Sort(L)
			slices.Sort(R)
			if g.root != recs[i].root || !eqSlice(g.L, L) || !eqSlice(g.R, R) {
				t.Fatalf("record %d replayed as %+v, want root %d L=%v R=%v", i, g, recs[i].root, L, R)
			}
		}
		b, err := os.ReadFile(filepath.Join(dir, ShardName(0)))
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	mixed, sorted := write(false), write(true)
	if !bytes.Equal(mixed, sorted) {
		t.Fatal("shard bytes depend on whether the caller's sides were sorted")
	}
	const want = "640243d9232fff3c363e4965dc330b125748f78330abdc5101d6a035b6f34f7f"
	if got := fmt.Sprintf("%x", sha256.Sum256(mixed)); got != want {
		t.Fatalf("shard digest %s, want %s: the encoding of this fixture changed", got, want)
	}
}

// TestFrameRotation forces many small frames and checks the stream
// reassembles, including the per-frame root-delta reset.
func TestFrameRotation(t *testing.T) {
	for _, compress := range []bool{false, true} {
		t.Run(fmt.Sprintf("compress=%v", compress), func(t *testing.T) {
			dir := t.TempDir()
			w, err := Create(dir, testMeta(1, compress), WriterOptions{TargetFrameBytes: 32})
			if err != nil {
				t.Fatal(err)
			}
			const n = 500
			for i := int32(0); i < n; i++ {
				w.Emit(0, i/7, []int32{i, i + 10}, []int32{i % 5, i%5 + 100})
			}
			if err := w.Close(); err != nil {
				t.Fatal(err)
			}
			recs, states := collect(t, dir)
			if err := Clean(states); err != nil {
				t.Fatal(err)
			}
			if len(recs) != n {
				t.Fatalf("got %d records, want %d", len(recs), n)
			}
			if states[0].Frames < 10 {
				t.Fatalf("expected many frames at a 32-byte target, got %d", states[0].Frames)
			}
			for i, r := range recs {
				i32 := int32(i)
				if r.root != i32/7 || !eqSlice(r.L, []int32{i32, i32 + 10}) {
					t.Fatalf("record %d mangled: %+v", i, r)
				}
			}
		})
	}
}

// TestReplayStopsAtCallbackError checks that the first error the
// callback returns ends the replay at once, wherever the record falls:
// inside a frame, at a frame or shard boundary, or last.
func TestReplayStopsAtCallbackError(t *testing.T) {
	dir := t.TempDir()
	w, err := Create(dir, testMeta(2, true), WriterOptions{TargetFrameBytes: 32})
	if err != nil {
		t.Fatal(err)
	}
	const perShard = 100
	for worker := 0; worker < 2; worker++ {
		for i := int32(0); i < perShard; i++ {
			w.Emit(worker, i/7, []int32{i, i + 10}, []int32{int32(worker), i + 100})
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	all, states := collect(t, dir)
	if len(all) != 2*perShard || states[0].Frames < 10 || states[1].Frames < 10 {
		t.Fatalf("fixture: %d records over %d+%d frames, want %d over many frames",
			len(all), states[0].Frames, states[1].Frames, 2*perShard)
	}

	stop := errors.New("stop")
	for _, k := range []int{1, 2, 3, 50, perShard, perShard + 1, 150, 2 * perShard} {
		var got []rec
		_, err := Replay(dir, func(root int32, L, R []int32) error {
			got = append(got, rec{root, append([]int32(nil), L...), append([]int32(nil), R...)})
			if len(got) == k {
				return stop
			}
			return nil
		})
		if !errors.Is(err, stop) {
			t.Errorf("k=%d: Replay returned %v, want the callback's error", k, err)
		}
		if len(got) != k {
			t.Errorf("k=%d: callback saw %d records", k, len(got))
			continue
		}
		for i, r := range got {
			if r.root != all[i].root || !eqSlice(r.L, all[i].L) || !eqSlice(r.R, all[i].R) {
				t.Errorf("k=%d: record %d = %+v, want %+v", k, i, r, all[i])
				break
			}
		}
	}
}

// TestCompressionShrinks checks that a compressible stream actually
// stores smaller with Compress set, and replays identically.
func TestCompressionShrinks(t *testing.T) {
	emitAll := func(w *Writer) {
		for i := int32(0); i < 2000; i++ {
			w.Emit(0, i, []int32{1, 2, 3, 4, 5, 6, 7, 8}, []int32{i, i + 1, i + 2})
		}
	}
	size := func(compress bool) int64 {
		dir := t.TempDir()
		w, err := Create(dir, testMeta(1, compress), WriterOptions{})
		if err != nil {
			t.Fatal(err)
		}
		emitAll(w)
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		recs, states := collect(t, dir)
		if err := Clean(states); err != nil {
			t.Fatal(err)
		}
		if len(recs) != 2000 {
			t.Fatalf("compress=%v: %d records, want 2000", compress, len(recs))
		}
		info, err := os.Stat(filepath.Join(dir, ShardName(0)))
		if err != nil {
			t.Fatal(err)
		}
		return info.Size()
	}
	plain, packed := size(false), size(true)
	if packed >= plain {
		t.Errorf("compressed shard %d bytes >= plain %d bytes", packed, plain)
	}
}

// TestTailRecovery injures a shard's tail four different ways and checks
// the reader recovers exactly the frames before the injury.
func TestTailRecovery(t *testing.T) {
	build := func(t *testing.T) (string, []ShardState) {
		dir := t.TempDir()
		w, err := Create(dir, testMeta(1, false), WriterOptions{TargetFrameBytes: 64})
		if err != nil {
			t.Fatal(err)
		}
		for i := int32(0); i < 200; i++ {
			w.Emit(0, i, []int32{i, i + 1}, []int32{i + 2})
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		_, states := collect(t, dir)
		if states[0].Frames < 3 {
			t.Fatalf("need >= 3 frames, got %d", states[0].Frames)
		}
		return dir, states
	}

	t.Run("truncated-payload", func(t *testing.T) {
		dir, states := build(t)
		shard := filepath.Join(dir, ShardName(0))
		if err := os.Truncate(shard, states[0].SizeBytes-3); err != nil {
			t.Fatal(err)
		}
		recs, got := collect(t, dir)
		if got[0].Tail == "" {
			t.Fatal("expected a tail error after truncation")
		}
		if got[0].Frames != states[0].Frames-1 {
			t.Errorf("recovered %d frames, want %d", got[0].Frames, states[0].Frames-1)
		}
		if int64(len(recs)) != got[0].Records {
			t.Errorf("replayed %d records, state says %d", len(recs), got[0].Records)
		}
	})

	t.Run("flipped-byte", func(t *testing.T) {
		dir, states := build(t)
		shard := filepath.Join(dir, ShardName(0))
		blob, err := os.ReadFile(shard)
		if err != nil {
			t.Fatal(err)
		}
		blob[len(blob)-5] ^= 0xff // inside the last frame's payload
		if err := os.WriteFile(shard, blob, 0o644); err != nil {
			t.Fatal(err)
		}
		_, got := collect(t, dir)
		if got[0].Tail == "" {
			t.Fatal("expected a CRC tail error")
		}
		if got[0].Frames != states[0].Frames-1 {
			t.Errorf("recovered %d frames, want %d", got[0].Frames, states[0].Frames-1)
		}
	})

	t.Run("garbage-appended", func(t *testing.T) {
		dir, states := build(t)
		f, err := os.OpenFile(filepath.Join(dir, ShardName(0)), os.O_WRONLY|os.O_APPEND, 0)
		if err != nil {
			t.Fatal(err)
		}
		f.Write([]byte("this is not a frame"))
		f.Close()
		_, got := collect(t, dir)
		if got[0].Tail == "" {
			t.Fatal("expected a bad-magic tail error")
		}
		if got[0].Frames != states[0].Frames || got[0].Records != states[0].Records {
			t.Errorf("garbage tail must not cost valid frames: got %+v want %+v", got[0], states[0])
		}
	})

	t.Run("partial-header", func(t *testing.T) {
		dir, states := build(t)
		f, err := os.OpenFile(filepath.Join(dir, ShardName(0)), os.O_WRONLY|os.O_APPEND, 0)
		if err != nil {
			t.Fatal(err)
		}
		f.Write(frameMagic) // 4 of 13 header bytes
		f.Close()
		_, got := collect(t, dir)
		if got[0].Tail == "" {
			t.Fatal("expected a partial-header tail error")
		}
		if got[0].Records != states[0].Records {
			t.Errorf("partial header must not cost valid records")
		}
	})

	t.Run("missing-shard", func(t *testing.T) {
		dir, _ := build(t)
		if err := os.Remove(filepath.Join(dir, ShardName(0))); err != nil {
			t.Fatal(err)
		}
		states, err := Verify(dir)
		if err != nil {
			t.Fatalf("a missing shard is a verification finding, not an error: %v", err)
		}
		if states[0].Tail == "" {
			t.Fatal("expected a missing-shard tail")
		}
	})
}

func TestCompactBelow(t *testing.T) {
	dir := t.TempDir()
	w, err := Create(dir, testMeta(2, false), WriterOptions{TargetFrameBytes: 48})
	if err != nil {
		t.Fatal(err)
	}
	// Interleave roots across both shards, out of order within a shard —
	// exactly what unordered parallel emission produces.
	for i := int32(0); i < 100; i++ {
		w.Emit(int(i)%2, i%10, []int32{i}, []int32{i + 1, i + 2})
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	// Injure the tail of shard 0 too: compaction must drop it silently.
	f, err := os.OpenFile(filepath.Join(dir, ShardName(0)), os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	f.Write([]byte{0xde, 0xad})
	f.Close()

	if err := CompactBelow(dir, func(root int32) bool { return root < 4 }); err != nil {
		t.Fatal(err)
	}
	recs, states := collect(t, dir)
	if err := Clean(states); err != nil {
		t.Fatalf("compacted shards must end clean: %v", err)
	}
	if len(recs) != 40 { // roots 0..3, 10 emissions each per root value
		t.Fatalf("got %d records after compaction, want 40", len(recs))
	}
	for _, r := range recs {
		if r.root >= 4 {
			t.Fatalf("record with root %d survived compaction below 4", r.root)
		}
	}

	// keep == nil preserves everything that remains.
	if err := CompactBelow(dir, nil); err != nil {
		t.Fatal(err)
	}
	recs2, _ := collect(t, dir)
	if len(recs2) != len(recs) {
		t.Fatalf("nil-keep compaction changed record count: %d -> %d", len(recs), len(recs2))
	}
}

func TestOpenAppend(t *testing.T) {
	dir := t.TempDir()
	w, err := Create(dir, testMeta(1, false), WriterOptions{})
	if err != nil {
		t.Fatal(err)
	}
	w.Emit(0, 0, []int32{1}, []int32{2})
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	w2, err := OpenAppend(dir, WriterOptions{})
	if err != nil {
		t.Fatal(err)
	}
	w2.Emit(0, 5, []int32{3}, []int32{4})
	if err := w2.Close(); err != nil {
		t.Fatal(err)
	}
	recs, states := collect(t, dir)
	if err := Clean(states); err != nil {
		t.Fatal(err)
	}
	if len(recs) != 2 || recs[0].root != 0 || recs[1].root != 5 {
		t.Fatalf("append round trip broken: %+v", recs)
	}
	if states[0].Frames != 2 {
		t.Errorf("expected 2 frames (one per session), got %d", states[0].Frames)
	}
}

func TestCreateRefusesExistingSpool(t *testing.T) {
	dir := t.TempDir()
	w, err := Create(dir, testMeta(1, false), WriterOptions{})
	if err != nil {
		t.Fatal(err)
	}
	w.Close()
	if _, err := Create(dir, testMeta(1, false), WriterOptions{}); err == nil {
		t.Fatal("Create over an existing spool must fail")
	}
}

func TestConcurrentEmit(t *testing.T) {
	dir := t.TempDir()
	const workers, per = 4, 1000
	w, err := Create(dir, testMeta(workers, false), WriterOptions{TargetFrameBytes: 256})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for wk := 0; wk < workers; wk++ {
		wg.Add(1)
		go func(wk int) {
			defer wg.Done()
			for i := int32(0); i < per; i++ {
				w.Emit(wk, i, []int32{int32(wk), i + 10}, []int32{i})
			}
		}(wk)
	}
	wg.Wait()
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	recs, states := collect(t, dir)
	if err := Clean(states); err != nil {
		t.Fatal(err)
	}
	if len(recs) != workers*per {
		t.Fatalf("got %d records, want %d", len(recs), workers*per)
	}
}

func TestSyncAllOffsets(t *testing.T) {
	dir := t.TempDir()
	w, err := Create(dir, testMeta(2, false), WriterOptions{})
	if err != nil {
		t.Fatal(err)
	}
	w.Emit(0, 0, []int32{1}, []int32{2})
	offsets, err := w.SyncAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(offsets) != 2 || offsets[0] == 0 || offsets[1] != 0 {
		t.Fatalf("offsets = %v: shard 0 flushed a frame, shard 1 is empty", offsets)
	}
	info, err := os.Stat(filepath.Join(dir, ShardName(0)))
	if err != nil {
		t.Fatal(err)
	}
	if info.Size() != offsets[0] {
		t.Errorf("shard 0 file size %d != durable offset %d", info.Size(), offsets[0])
	}
	w.Close()
}

func TestCompatibleResume(t *testing.T) {
	base := testMeta(2, false)
	ok := base
	ok.Shards = 8          // shard modulus may change
	ok.Algorithm = "other" // algorithm may change
	ok.Tau = 99            // τ may change
	if err := CompatibleResume(base, ok); err != nil {
		t.Errorf("algorithm/τ/shards changes must be resumable: %v", err)
	}
	for name, mut := range map[string]func(*Meta){
		"graph":    func(m *Meta) { m.GraphHash = "different" },
		"edges":    func(m *Meta) { m.Edges++ },
		"ordering": func(m *Meta) { m.Ordering = "rand" },
		"seed":     func(m *Meta) { m.OrderSeed++ },
	} {
		bad := base
		mut(&bad)
		if err := CompatibleResume(base, bad); err == nil {
			t.Errorf("%s mismatch must refuse resume", name)
		}
	}
}

func TestParseFsyncMode(t *testing.T) {
	for _, m := range []FsyncMode{FsyncNever, FsyncCheckpoint, FsyncAlways} {
		got, err := ParseFsyncMode(m.String())
		if err != nil || got != m {
			t.Errorf("ParseFsyncMode(%q) = %v, %v", m.String(), got, err)
		}
	}
	if _, err := ParseFsyncMode("bogus"); err == nil {
		t.Error("ParseFsyncMode must reject unknown modes")
	}
}

func TestGraphSignature(t *testing.T) {
	a := gen.Uniform(1, 30, 20, 100)
	b := gen.Uniform(1, 30, 20, 100)
	c := gen.Uniform(2, 30, 20, 100)
	if GraphSignature(a) != GraphSignature(b) {
		t.Error("signature must be deterministic")
	}
	if GraphSignature(a) == GraphSignature(c) {
		t.Error("different graphs should hash differently")
	}
}

func TestAtomicWriteFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "x.json")
	for _, blob := range []string{"one", "two (overwrite)"} {
		if err := AtomicWriteFile(path, []byte(blob), true); err != nil {
			t.Fatal(err)
		}
		got, err := os.ReadFile(path)
		if err != nil || string(got) != blob {
			t.Fatalf("read back %q, %v; want %q", got, err, blob)
		}
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != 1 {
		t.Errorf("temp files left behind: %v", ents)
	}
}

// TestCompactKeepsFramesUnderBound: compaction re-packs records across the
// frame cuts a checkpoint made, so small records followed by a record near
// MaxFramePayload must not become one frame past the bound — the reader
// would reject it as a torn tail, and a resume would lose its records.
func TestCompactKeepsFramesUnderBound(t *testing.T) {
	// The big record is 67 MB as []int32; collect early so the test's
	// peak heap stays near its live data.
	defer debug.SetGCPercent(debug.SetGCPercent(10))
	dir := t.TempDir()
	w, err := Create(dir, testMeta(1, false), WriterOptions{})
	if err != nil {
		t.Fatal(err)
	}
	const small = 1000
	for i := int32(0); i < small; i++ {
		w.Emit(0, i, []int32{i}, []int32{i})
	}
	if _, err := w.SyncAll(); err != nil { // a checkpoint cuts the frame
		t.Fatal(err)
	}
	// One id per payload byte: R = 0, 1, …, n−1 encodes as n bytes, so the
	// record fills a frame of its own to just under the bound.
	big := make([]int32, MaxFramePayload-64)
	for i := range big {
		big[i] = int32(i)
	}
	w.Emit(0, small, []int32{0}, big)
	big = nil
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if states, err := Verify(dir); err != nil || Clean(states) != nil || TotalRecords(states) != small+1 {
		t.Fatalf("writer's spool: %v %v, %d records, want a clean %d", err, Clean(states), TotalRecords(states), small+1)
	}

	if err := CompactBelow(dir, nil); err != nil {
		t.Fatal(err)
	}
	states, err := Verify(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := Clean(states); err != nil {
		t.Fatalf("compacted shard does not replay clean: %v", err)
	}
	if n := TotalRecords(states); n != small+1 {
		t.Fatalf("compacted shard holds %d records, want %d", n, small+1)
	}
	if states[0].Frames != 2 {
		t.Fatalf("compacted shard has %d frames, want the small records and the big one apart", states[0].Frames)
	}
}
