package mbe_test

import (
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"sync/atomic"
	"testing"

	mbe "repro"
)

// busyGraph builds a random bipartite graph dense enough that serial
// enumeration crosses many amortized stop-poll windows (tle.CheckEvery
// node visits per clock poll), so a mid-run context cancel is reliably
// observed — the UL dataset is too small for that.
func busyGraph(t *testing.T) *mbe.Graph {
	t.Helper()
	const nu, nv, ne = 200, 100, 2400
	seen := make(map[[2]int32]bool, ne)
	var edges []mbe.Edge
	state := uint64(0x9e3779b97f4a7c15)
	next := func(n int32) int32 {
		state = state*6364136223846793005 + 1442695040888963407
		return int32((state >> 33) % uint64(n))
	}
	for len(edges) < ne {
		u, v := next(nu), next(nv)
		if !seen[[2]int32{u, v}] {
			seen[[2]int32{u, v}] = true
			edges = append(edges, mbe.Edge{U: u, V: v})
		}
	}
	g, err := mbe.FromEdges(nu, nv, edges)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// refDigest enumerates g in memory (no spool) and returns the
// reference digest.
func refDigest(t *testing.T, g *mbe.Graph, a mbe.Algorithm, threads int) mbe.Digest {
	t.Helper()
	var d mbe.Digest
	res, err := mbe.Enumerate(g, mbe.Options{Algorithm: a, Threads: threads, OnBiclique: d.Observe})
	if err != nil {
		t.Fatal(err)
	}
	if res.Count != d.Count {
		t.Fatalf("handler saw %d bicliques, result says %d", d.Count, res.Count)
	}
	return d
}

func TestSpooledEnumerateMatchesInMemory(t *testing.T) {
	for _, tc := range []struct {
		name     string
		algo     mbe.Algorithm
		threads  int
		compress bool
	}{
		{"AdaMBE", mbe.AdaMBE, 0, false},
		{"AdaMBE-compressed", mbe.AdaMBE, 0, true},
		{"ParAdaMBE-4", mbe.ParAdaMBE, 4, false},
		{"BBK", mbe.BBK, 0, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			g, err := mbe.Dataset("UL")
			if err != nil {
				t.Fatal(err)
			}
			want := refDigest(t, g, tc.algo, tc.threads)
			dir := filepath.Join(t.TempDir(), "spool")
			rec := mbe.NewRecorder(mbe.RunInfo{Algorithm: tc.algo.String()})
			res, err := mbe.Enumerate(g, mbe.Options{
				Algorithm: tc.algo, Threads: tc.threads,
				SpoolDir: dir, SpoolCompress: tc.compress, Obs: rec,
			})
			if err != nil {
				t.Fatal(err)
			}
			if res.Count != want.Count {
				t.Errorf("spooled run counted %d, want %d", res.Count, want.Count)
			}
			// Every rooted engine reports to an attached Recorder, with or
			// without probes of its own.
			if snap := rec.Snapshot(); snap.Bicliques != want.Count || snap.SpoolRecords != want.Count ||
				snap.SpoolBytes == 0 || snap.Phase != "done" {
				t.Errorf("recorder after the spooled run: bicliques=%d spool_records=%d spool_bytes=%d phase=%q; want %d, %d, >0, done",
					snap.Bicliques, snap.SpoolRecords, snap.SpoolBytes, snap.Phase, want.Count, want.Count)
			}
			got, err := mbe.SpoolDigest(dir)
			if err != nil {
				t.Fatal(err)
			}
			if !got.Equal(want) {
				t.Errorf("spool digest %s != in-memory digest %s", got, want)
			}
			n, err := mbe.ReadSpool(dir, nil)
			if err != nil {
				t.Fatal(err)
			}
			if n != want.Count {
				t.Errorf("ReadSpool delivered %d records, want %d", n, want.Count)
			}
		})
	}
}

// TestSpooledInterruptResume is the public-API acceptance path: cancel
// a spooled run mid-enumeration (exactly what Ctrl-C does in cmd/mbe),
// resume it, and require the final spool digest to be identical to an
// uninterrupted run's.
func TestSpooledInterruptResume(t *testing.T) {
	for _, algo := range []struct {
		name    string
		a       mbe.Algorithm
		threads int
	}{
		{"AdaMBE", mbe.AdaMBE, 0},
		{"ParAdaMBE-4", mbe.ParAdaMBE, 4},
		{"BBK", mbe.BBK, 0},
	} {
		t.Run(algo.name, func(t *testing.T) {
			g := busyGraph(t)
			want := refDigest(t, g, algo.a, algo.threads)
			dir := filepath.Join(t.TempDir(), "spool")

			ctx, cancel := context.WithCancel(context.Background())
			var seen atomic.Int64
			res, err := mbe.Enumerate(g, mbe.Options{
				Algorithm: algo.a, Threads: algo.threads,
				SpoolDir: dir,
				Context:  ctx,
				OnBiclique: func(L, R []int32) {
					if seen.Add(1) == want.Count/3 {
						cancel()
					}
				},
			})
			cancel()
			if err != nil {
				t.Fatal(err)
			}
			if res.StopReason != mbe.StopCanceled {
				t.Fatalf("interrupted run stopped with %s, want %s", res.StopReason, mbe.StopCanceled)
			}

			res, err = mbe.Enumerate(g, mbe.Options{
				Algorithm: algo.a, Threads: algo.threads,
				SpoolDir: dir, Resume: true,
			})
			if err != nil {
				t.Fatal(err)
			}
			if res.StopReason != mbe.StopNone {
				t.Fatalf("resume stopped early: %s", res.StopReason)
			}
			got, err := mbe.SpoolDigest(dir)
			if err != nil {
				t.Fatal(err)
			}
			if !got.Equal(want) {
				t.Errorf("resumed spool digest %s != uninterrupted digest %s", got, want)
			}

			// A second resume of a complete spool is a clean no-op.
			res, err = mbe.Enumerate(g, mbe.Options{
				Algorithm: algo.a, Threads: algo.threads,
				SpoolDir: dir, Resume: true,
			})
			if err != nil {
				t.Fatal(err)
			}
			if res.Count != 0 || res.StopReason != mbe.StopNone {
				t.Errorf("resume of complete spool: count=%d stop=%s, want 0/none", res.Count, res.StopReason)
			}
			if got2, err := mbe.SpoolDigest(dir); err != nil || !got2.Equal(want) {
				t.Errorf("no-op resume perturbed the spool: %s (err %v)", got2, err)
			}
		})
	}
}

func TestSpoolOptionValidation(t *testing.T) {
	g, err := mbe.Dataset("UL")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := mbe.Enumerate(g, mbe.Options{Algorithm: mbe.AdaMBE, Resume: true}); err == nil {
		t.Error("Resume without SpoolDir must be rejected")
	}
	if _, err := mbe.Enumerate(g, mbe.Options{Algorithm: mbe.FMBE, SpoolDir: t.TempDir()}); err == nil {
		t.Error("SpoolDir with a baseline algorithm must be rejected")
	}

	// A resume under a different ordering/seed is refused: the
	// checkpoint watermark is only meaningful under the original order.
	dir := filepath.Join(t.TempDir(), "spool")
	if _, err := mbe.Enumerate(g, mbe.Options{Algorithm: mbe.AdaMBE, SpoolDir: dir}); err != nil {
		t.Fatal(err)
	}
	if _, err := mbe.Enumerate(g, mbe.Options{
		Algorithm: mbe.AdaMBE, SpoolDir: dir, Resume: true,
		Ordering: mbe.OrderRandom, Seed: 3,
	}); err == nil {
		t.Error("resume under a different ordering must be rejected")
	}
	// Creating over an existing spool (without Resume) is refused too.
	if _, err := mbe.Enumerate(g, mbe.Options{Algorithm: mbe.AdaMBE, SpoolDir: dir}); err == nil {
		t.Error("re-running into an existing spool without Resume must be rejected")
	}
}

// TestSpoolVersionRefused: a spool.json of another format version — 7,
// or none at all — is refused by both readers and by Resume instead of
// being replayed as this build's format.
func TestSpoolVersionRefused(t *testing.T) {
	g, err := mbe.Dataset("UL")
	if err != nil {
		t.Fatal(err)
	}
	for name, edit := range map[string]func(map[string]any){
		"version-7": func(m map[string]any) { m["version"] = 7 },
		"missing":   func(m map[string]any) { delete(m, "version") },
	} {
		t.Run(name, func(t *testing.T) {
			dir := filepath.Join(t.TempDir(), "spool")
			if _, err := mbe.Enumerate(g, mbe.Options{SpoolDir: dir}); err != nil {
				t.Fatal(err)
			}
			path := filepath.Join(dir, "spool.json")
			blob, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			var meta map[string]any
			if err := json.Unmarshal(blob, &meta); err != nil {
				t.Fatal(err)
			}
			edit(meta)
			if blob, err = json.Marshal(meta); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, blob, 0o644); err != nil {
				t.Fatal(err)
			}

			if n, err := mbe.ReadSpool(dir, nil); err == nil {
				t.Errorf("ReadSpool replayed %d records of a foreign-version spool", n)
			}
			if d, err := mbe.SpoolDigest(dir); err == nil {
				t.Errorf("SpoolDigest digested a foreign-version spool: %s", d)
			}
			if _, err := mbe.Enumerate(g, mbe.Options{SpoolDir: dir, Resume: true}); err == nil {
				t.Error("Resume accepted a foreign-version spool")
			}
		})
	}
}
