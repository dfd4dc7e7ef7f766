package dist

import (
	"encoding/json"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/difftest"
	"repro/internal/graph"
)

func testGraph(t testing.TB, seed int64, nu, nv, m int) *graph.Bipartite {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	edges := make([]graph.Edge, m)
	for i := range edges {
		edges[i] = graph.Edge{U: int32(rng.Intn(nu)), V: int32(rng.Intn(nv))}
	}
	g, err := graph.FromEdges(nu, nv, edges)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func testSpec(t testing.TB, g *graph.Bipartite, algo, ordering string) Spec {
	t.Helper()
	s := Spec{Algorithm: algo, Ordering: ordering}.WithGraph(g)
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	return s
}

// fakeDigest builds an arbitrary non-empty digest for protocol-level
// tests that never run an engine.
func fakeDigest(fps ...uint64) difftest.Digest {
	var d difftest.Digest
	for _, fp := range fps {
		d.Add(fp)
	}
	return d
}

func TestSplitRootsTilesTheRootSpace(t *testing.T) {
	cases := []struct{ nv, n, want int }{
		{nv: 10, n: 3, want: 3},
		{nv: 100, n: 16, want: 16},
		{nv: 3, n: 10, want: 3}, // fewer ranges than requested
		{nv: 1, n: 1, want: 1},
		{nv: 0, n: 4, want: 0}, // empty V side
		{nv: 7, n: 0, want: 1}, // n < 1 clamps to 1
	}
	for _, c := range cases {
		rs := SplitRoots(c.nv, c.n)
		if len(rs) != c.want {
			t.Errorf("SplitRoots(%d, %d): %d ranges, want %d", c.nv, c.n, len(rs), c.want)
			continue
		}
		next := int32(0)
		for _, r := range rs {
			if r.Start != next || r.End <= r.Start {
				t.Errorf("SplitRoots(%d, %d): range [%d,%d) breaks the tiling at %d", c.nv, c.n, r.Start, r.End, next)
			}
			next = r.End
		}
		if next != int32(c.nv) {
			t.Errorf("SplitRoots(%d, %d): tiling ends at %d, want %d", c.nv, c.n, next, c.nv)
		}
	}
}

func TestSpecValidateRejectsMisconfiguration(t *testing.T) {
	g := testGraph(t, 1, 8, 8, 24)
	good := Spec{Algorithm: "AdaMBE", Ordering: "asc"}.WithGraph(g)
	if err := good.Validate(); err != nil {
		t.Fatalf("valid spec rejected: %v", err)
	}

	// Competitor engines do not share the root partition contract.
	for _, algo := range []string{"FMBE", "PMBE", "ooMBEA", "ParMBE", "GMBE", "nosuch"} {
		s := Spec{Algorithm: algo, Ordering: "asc"}.WithGraph(g)
		if err := s.Validate(); err == nil {
			t.Errorf("algorithm %q accepted; it cannot shard by root", algo)
		}
	}
	s := Spec{Algorithm: "AdaMBE", Ordering: "bogus"}.WithGraph(g)
	if err := s.Validate(); err == nil {
		t.Error("bogus ordering accepted")
	}
	if err := (Spec{Algorithm: "AdaMBE", Ordering: "asc"}).Validate(); err == nil {
		t.Error("spec without graph identity accepted")
	}
	two := good
	two.Dataset, two.Path = "UL", "ul.konect"
	if err := two.Validate(); err == nil {
		t.Error("two locators accepted")
	}
	if _, err := two.LoadGraph(); err == nil {
		t.Error("LoadGraph picked one of two locators")
	}
	if _, err := good.LoadGraph(); err == nil {
		t.Error("LoadGraph accepted a spec without a locator")
	}

	other := testGraph(t, 2, 8, 8, 24)
	if err := good.CheckGraph(other); err == nil {
		t.Error("CheckGraph accepted a different graph")
	}
	if err := good.CheckGraph(g); err != nil {
		t.Errorf("CheckGraph rejected the spec's own graph: %v", err)
	}
}

// TestAttemptFencing drives the coordinator's ledger directly through
// the whole fencing story: wrong-attempt frames, expiry, zombie frames
// after expiry, and a re-issued lease that resumes at the confirmed
// watermark and out-fences the zombie.
func TestAttemptFencing(t *testing.T) {
	g := testGraph(t, 3, 8, 8, 24)
	c, err := NewCoordinator(CoordOptions{
		Spec: testSpec(t, g, "AdaMBE", "none"),
		Dir:  t.TempDir(), Ranges: 1, LeaseTTL: time.Minute,
	})
	if err != nil {
		t.Fatal(err)
	}

	lease, ok, err := c.grantLease("victim")
	if err != nil || !ok || lease.Attempt != 1 || lease.Resume != 0 || lease.End != int32(g.NV()) {
		t.Fatalf("first grant: %+v ok=%v err=%v", lease, ok, err)
	}

	d1 := fakeDigest(11, 12)
	// A frame tagged with an attempt that was never granted.
	if err := c.acceptFrame(0, 2, "evil", Frame{Type: "wm", From: 0, To: 1, Delta: &d1}); err == nil {
		t.Fatal("future-attempt frame accepted")
	}
	// The live attempt's frame merges and advances the watermark.
	if err := c.acceptFrame(0, 1, "victim", Frame{Type: "wm", From: 0, To: 3, Delta: &d1}); err != nil {
		t.Fatal(err)
	}
	if wm, state, _ := c.RangeWatermark(0); wm != 3 || state != stateLeased {
		t.Fatalf("after wm frame: watermark %d state %s", wm, state)
	}

	// Contiguity violations: a gap, a regression, and an overshoot.
	for _, f := range []Frame{
		{Type: "wm", From: 4, To: 5, Delta: &d1},                 // gap
		{Type: "wm", From: 0, To: 3, Delta: &d1},                 // replay
		{Type: "wm", From: 3, To: int32(g.NV()) + 1, Delta: &d1}, // past end
		{Type: "wm", From: 3, To: 3, Delta: &d1},                 // empty
		{Type: "wm", From: 3, To: 4},                             // no delta
		{Type: "done", From: 3, To: 4, Delta: &d1, Total: &d1},   // done before end
		{Type: "done", From: 3, To: int32(g.NV()), Delta: &d1},   // done without total
		{Type: "bogus"}, // unknown type
	} {
		if err := c.acceptFrame(0, 1, "victim", f); err == nil {
			t.Errorf("malformed frame %+v accepted", f)
		}
	}
	if wm, _, _ := c.RangeWatermark(0); wm != 3 {
		t.Fatalf("rejected frames moved the watermark to %d", wm)
	}

	// Expire the lease through the janitor's path (time seam).
	c.now = func() time.Time { return time.Now().Add(2 * time.Minute) }
	c.expireLeases()
	if wm, state, _ := c.RangeWatermark(0); state != statePending || wm != 3 {
		t.Fatalf("after expiry: state %s watermark %d", state, wm)
	}
	if v := c.leasesExpired.Value(); v != 1 {
		t.Errorf("dist_leases_expired_total = %d, want 1", v)
	}
	// The zombie's attempt is fenced even before a re-grant.
	if err := c.acceptFrame(0, 1, "victim", Frame{Type: "wm", From: 3, To: 4, Delta: &d1}); err == nil {
		t.Fatal("zombie frame accepted after expiry")
	}

	// The re-issue resumes at the confirmed watermark with a fresh
	// fencing token.
	lease2, ok, err := c.grantLease("healer")
	if err != nil || !ok || lease2.Attempt != 2 || lease2.Resume != 3 || lease2.Start != 0 {
		t.Fatalf("re-grant: %+v ok=%v err=%v", lease2, ok, err)
	}
	if v := c.leasesReissued.Value(); v != 1 {
		t.Errorf("dist_leases_reissued_total = %d, want 1", v)
	}
	if err := c.acceptFrame(0, 1, "victim", Frame{Type: "wm", From: 3, To: 4, Delta: &d1}); err == nil {
		t.Fatal("zombie frame accepted after re-grant")
	}

	// The healer finishes: done's Total must cross-check against the
	// attempt's own deltas, not the range's lifetime digest.
	d2 := fakeDigest(21)
	if err := c.acceptFrame(0, 2, "healer", Frame{Type: "wm", From: 3, To: 5, Delta: &d2}); err != nil {
		t.Fatal(err)
	}
	d3 := fakeDigest(31)
	badTotal := fakeDigest(99)
	done := Frame{Type: "done", From: 5, To: int32(g.NV()), Delta: &d3, Total: &badTotal}
	if err := c.acceptFrame(0, 2, "healer", done); err == nil || !strings.Contains(err.Error(), "mismatch") {
		t.Fatalf("done with wrong total: err=%v, want digest mismatch", err)
	}
	attemptTotal := fakeDigest(21)
	attemptTotal.Merge(fakeDigest(31))
	done.Total = &attemptTotal
	if err := c.acceptFrame(0, 2, "healer", done); err != nil {
		t.Fatal(err)
	}

	want := fakeDigest(11, 12)
	want.Merge(fakeDigest(21))
	want.Merge(fakeDigest(31))
	got, complete := c.GlobalDigest()
	if !complete || !got.Equal(want) {
		t.Fatalf("global digest %v complete=%v, want %v complete", got, complete, want)
	}
	select {
	case <-c.Done():
	default:
		t.Error("Done not closed after the last range finished")
	}
	if v := c.framesRejected.Value(); v < 10 {
		t.Errorf("dist_frames_rejected_total = %d, want every rejection counted", v)
	}
}

// TestManifestRecovery simulates kill -9 by simply abandoning a live
// coordinator and constructing a fresh one over the same directory: the
// ranges must come back with their watermarks, digests and attempt
// counters, leased reverted to pending.
func TestManifestRecovery(t *testing.T) {
	g := testGraph(t, 5, 10, 12, 40)
	dir := t.TempDir()
	spec := testSpec(t, g, "AdaMBE", "asc")

	c1, err := NewCoordinator(CoordOptions{Spec: spec, Dir: dir, Ranges: 2, LeaseTTL: time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	lease, ok, err := c1.grantLease("w0")
	if err != nil || !ok {
		t.Fatalf("no lease: %v", err)
	}
	d1 := fakeDigest(7, 8, 9)
	if err := c1.acceptFrame(lease.RangeID, lease.Attempt, "w0",
		Frame{Type: "wm", From: lease.Resume, To: lease.Resume + 3, Delta: &d1}); err != nil {
		t.Fatal(err)
	}
	// kill -9: no Stop, no further writes; the manifest on disk is all
	// that survives.

	c2, err := NewCoordinator(CoordOptions{Spec: spec, Dir: dir, LeaseTTL: time.Minute})
	if err != nil {
		t.Fatalf("recovery: %v", err)
	}
	if n := len(c2.ranges); n != 2 {
		t.Fatalf("recovered %d ranges, want the persisted 2 (CoordOptions.Ranges must be ignored)", n)
	}
	r0 := c2.ranges[lease.RangeID]
	if r0.state != statePending || r0.attempt != 1 || r0.watermark != lease.Resume+3 || !r0.digest.Equal(d1) {
		t.Fatalf("recovered range: state=%s attempt=%d watermark=%d digest=%v", r0.state, r0.attempt, r0.watermark, r0.digest)
	}
	// A re-grant after recovery continues the attempt sequence — the
	// fencing token can never alias a pre-crash zombie's.
	lease2, ok, err := c2.grantLease("w1")
	if err != nil || !ok || lease2.Attempt != 2 || lease2.Resume != lease.Resume+3 {
		t.Fatalf("post-recovery grant: %+v ok=%v err=%v", lease2, ok, err)
	}

	// A mismatched spec must refuse the directory outright.
	for _, bad := range []Spec{
		testSpec(t, g, "BBK", "asc"),
		testSpec(t, g, "AdaMBE", "rand"),
		testSpec(t, testGraph(t, 6, 10, 12, 40), "AdaMBE", "asc"),
	} {
		if _, err := NewCoordinator(CoordOptions{Spec: bad, Dir: dir}); err == nil {
			t.Errorf("incompatible spec %+v accepted over an existing manifest", bad)
		}
	}
}

// TestManifestRecoveryComplete: a finished run's manifest recovers
// directly into the complete state with the same global digest.
func TestManifestRecoveryComplete(t *testing.T) {
	g := testGraph(t, 9, 8, 6, 20)
	dir := t.TempDir()
	spec := testSpec(t, g, "BBK", "none")

	c1, err := NewCoordinator(CoordOptions{Spec: spec, Dir: dir, Ranges: 2})
	if err != nil {
		t.Fatal(err)
	}
	for {
		lease, ok, err := c1.grantLease("w")
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
		d := fakeDigest(uint64(lease.RangeID)*100 + 1)
		if err := c1.acceptFrame(lease.RangeID, lease.Attempt, "w",
			Frame{Type: "done", From: lease.Resume, To: lease.End, Delta: &d, Total: &d}); err != nil {
			t.Fatal(err)
		}
	}
	want, complete := c1.GlobalDigest()
	if !complete {
		t.Fatal("run not complete after every range was sealed")
	}

	c2, err := NewCoordinator(CoordOptions{Spec: spec, Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	got, complete := c2.GlobalDigest()
	if !complete || !got.Equal(want) {
		t.Fatalf("recovered complete run: digest %v complete=%v, want %v", got, complete, want)
	}
	select {
	case <-c2.Done():
	default:
		t.Error("recovered complete run: Done not closed")
	}
	// A complete run grants nothing and tells workers to exit.
	if _, ok, err := c2.grantLease("w"); err != nil || ok {
		t.Errorf("complete run granted a lease (err=%v)", err)
	}
}

// TestEmptyDoneFrameSealsFullyStreamedRange: when the frontier reaches
// the range end before enumeration returns, the flusher streams the
// final interval as a wm frame and the done frame arrives empty
// (From == To == end). It must still seal the range — rejecting it
// would strand the range at watermark == end forever (the re-issued
// lease would have nothing to enumerate).
func TestEmptyDoneFrameSealsFullyStreamedRange(t *testing.T) {
	g := testGraph(t, 5, 8, 8, 24)
	c, err := NewCoordinator(CoordOptions{
		Spec: testSpec(t, g, "AdaMBE", "none"),
		Dir:  t.TempDir(), Ranges: 1, LeaseTTL: time.Minute,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok, err := c.grantLease("w"); err != nil || !ok {
		t.Fatalf("no lease granted: %v", err)
	}
	end := int32(g.NV())
	d := fakeDigest(41, 42)
	if err := c.acceptFrame(0, 1, "w", Frame{Type: "wm", From: 0, To: end, Delta: &d}); err != nil {
		t.Fatal(err)
	}

	empty := difftest.Digest{}
	// The cross-check still guards the empty tail: a total that does not
	// reproduce the attempt's streamed deltas is rejected.
	bad := fakeDigest(99)
	if err := c.acceptFrame(0, 1, "w", Frame{Type: "done", From: end, To: end, Delta: &empty, Total: &bad}); err == nil ||
		!strings.Contains(err.Error(), "mismatch") {
		t.Fatalf("empty done with wrong total: err=%v, want digest mismatch", err)
	}
	// An empty wm frame is still a protocol violation.
	if err := c.acceptFrame(0, 1, "w", Frame{Type: "wm", From: end, To: end, Delta: &empty}); err == nil {
		t.Fatal("empty wm frame accepted")
	}

	if err := c.acceptFrame(0, 1, "w", Frame{Type: "done", From: end, To: end, Delta: &empty, Total: &d}); err != nil {
		t.Fatalf("empty done frame rejected: %v", err)
	}
	if wm, state, _ := c.RangeWatermark(0); state != stateDone || wm != end {
		t.Fatalf("after empty done: state %s watermark %d", state, wm)
	}
	got, complete := c.GlobalDigest()
	if !complete || !got.Equal(fakeDigest(41, 42)) {
		t.Fatalf("global digest %v complete=%v after empty-done seal", got, complete)
	}
	select {
	case <-c.Done():
	default:
		t.Error("Done not closed after empty-done seal")
	}
}

// manifestV1 is a dist-manifest.json without a trailing newline, as
// earlier builds wrote it: range 0 leased to w0 at attempt 1 with
// fakeDigest(7, 8, 9) merged below watermark 3, range 1 untouched. Its
// spec is testSpec(testGraph(t, 5, 10, 12, 40), "AdaMBE", "asc").
const manifestV1 = `{
  "version": 1,
  "spec": {
    "algorithm": "AdaMBE",
    "ordering": "asc",
    "order_seed": 0,
    "tau": 0,
    "nu": 10,
    "nv": 12,
    "edges": 33,
    "graph_hash": "7ec5468bc4eace26"
  },
  "lease_ttl_ms": 60000,
  "complete": false,
  "ranges": [
    {
      "id": 0,
      "start": 0,
      "end": 6,
      "state": "leased",
      "attempt": 1,
      "watermark": 3,
      "worker": "w0",
      "digest": {
        "count": 3,
        "sum": "0000000000000018",
        "xor": "0000000000000006",
        "fold": "9bb2b9926c3d2bef"
      }
    },
    {
      "id": 1,
      "start": 6,
      "end": 12,
      "state": "pending",
      "attempt": 0,
      "watermark": 6,
      "digest": {
        "count": 0,
        "sum": "0000000000000000",
        "xor": "0000000000000000",
        "fold": "0000000000000000"
      }
    }
  ],
  "written_at": "2026-10-20T00:29:57Z"
}`

// TestManifestFormatPinned: a coordinator recovers from a manifest in
// the format above, and writes the same state back byte for byte, plus
// the trailing newline every JSON state file ends with.
func TestManifestFormatPinned(t *testing.T) {
	spec := testSpec(t, testGraph(t, 5, 10, 12, 40), "AdaMBE", "asc")
	if spec.GraphHash != "7ec5468bc4eace26" || spec.Edges != 33 {
		t.Fatalf("test graph changed: %+v; regenerate manifestV1", spec)
	}
	d := fakeDigest(7, 8, 9)

	dir := t.TempDir()
	if err := os.WriteFile(manifestPath(dir), []byte(manifestV1), 0o644); err != nil {
		t.Fatal(err)
	}
	c, err := NewCoordinator(CoordOptions{Spec: spec, Dir: dir})
	if err != nil {
		t.Fatalf("recovery from a v1 manifest: %v", err)
	}
	r0, r1 := c.ranges[0], c.ranges[1]
	if r0.state != statePending || r0.attempt != 1 || r0.watermark != 3 || r0.digest != d {
		t.Errorf("range 0: state=%s attempt=%d watermark=%d digest=%v", r0.state, r0.attempt, r0.watermark, r0.digest)
	}
	if r1.state != statePending || r1.attempt != 0 || r1.watermark != 6 || r1.digest != (difftest.Digest{}) {
		t.Errorf("range 1: state=%s attempt=%d watermark=%d digest=%v", r1.state, r1.attempt, r1.watermark, r1.digest)
	}

	// The same state, written by this build.
	dir = t.TempDir()
	c, err = NewCoordinator(CoordOptions{Spec: spec, Dir: dir, Ranges: 2, LeaseTTL: time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok, err := c.grantLease("w0"); err != nil || !ok {
		t.Fatalf("no lease granted: %v", err)
	}
	if err := c.acceptFrame(0, 1, "w0", Frame{Type: "wm", From: 0, To: 3, Delta: &d}); err != nil {
		t.Fatal(err)
	}
	blob, err := os.ReadFile(manifestPath(dir))
	if err != nil {
		t.Fatal(err)
	}
	stamp := regexp.MustCompile(`"written_at": "[^"]*"`)
	got := stamp.ReplaceAllString(string(blob), `"written_at": "2026-10-20T00:29:57Z"`)
	if got != manifestV1+"\n" {
		t.Errorf("manifest bytes changed:\n%s\nwant:\n%s", got, manifestV1+"\n")
	}
}

// TestBadHexFrameIsADecodeError: a frame whose digest is not hex fails
// while the stream is decoded, like a torn frame: 400, nothing merged,
// the watermark where it was, and no frame counted as rejected.
func TestBadHexFrameIsADecodeError(t *testing.T) {
	g := testGraph(t, 3, 8, 8, 24)
	c, err := NewCoordinator(CoordOptions{
		Spec: testSpec(t, g, "AdaMBE", "none"),
		Dir:  t.TempDir(), Ranges: 1, LeaseTTL: time.Minute,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok, err := c.grantLease("w"); err != nil || !ok {
		t.Fatalf("no lease granted: %v", err)
	}
	ts := httptest.NewServer(c.Handler())
	defer ts.Close()

	frame := `{"type":"wm","from":0,"to":3,"delta":{"count":1,"sum":"zz","xor":"0","fold":"0"}}` + "\n"
	resp, err := http.Post(ts.URL+"/dist/v1/ranges/0/stream?attempt=1&worker=w", "application/x-ndjson", strings.NewReader(frame))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("bad-hex frame: HTTP %d, want 400", resp.StatusCode)
	}
	if wm, state, _ := c.RangeWatermark(0); wm != 0 || state != stateLeased {
		t.Errorf("after bad-hex frame: watermark %d state %s, want 0 leased", wm, state)
	}
	if p := c.Progress(); p.Bicliques != 0 || p.RootsDone != 0 {
		t.Errorf("bad-hex frame merged: %+v", p)
	}
	if n, m := c.framesRejected.Value(), c.wmFrames.Value(); n != 0 || m != 0 {
		t.Errorf("frames rejected %d, merged %d; want 0 and 0", n, m)
	}
}

// postLease asks the coordinator at base for a lease as worker.
func postLease(t *testing.T, base, worker string) (int, Lease) {
	t.Helper()
	resp, err := http.Post(base+"/dist/v1/lease", "application/json", strings.NewReader(`{"worker":"`+worker+`"}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var lease Lease
	if resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(&lease); err != nil {
			t.Fatal(err)
		}
	}
	return resp.StatusCode, lease
}

// TestLeaseNotPersistedIsNotGranted: a grant whose manifest write fails
// is not made. The answer is 503, the range stays pending at its old
// attempt in memory and on disk, and once writes work again the next
// grant is attempt 1.
func TestLeaseNotPersistedIsNotGranted(t *testing.T) {
	g := testGraph(t, 3, 8, 8, 24)
	dir := filepath.Join(t.TempDir(), "coord")
	c, err := NewCoordinator(CoordOptions{
		Spec: testSpec(t, g, "AdaMBE", "none"),
		Dir:  dir, Ranges: 1, LeaseTTL: time.Minute,
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(c.Handler())
	defer ts.Close()

	// A file where the directory was fails every manifest write; a chmod
	// would not stop root.
	moved := dir + ".moved"
	if err := os.Rename(dir, moved); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(dir, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	if code, _ := postLease(t, ts.URL, "w"); code != http.StatusServiceUnavailable {
		t.Fatalf("grant with an unwritable manifest: HTTP %d, want 503", code)
	}
	c.mu.Lock()
	r := *c.ranges[0]
	c.mu.Unlock()
	if r.state != statePending || r.attempt != 0 || r.worker != "" {
		t.Errorf("after the failed grant: state %s attempt %d worker %q, want pending 0 \"\"", r.state, r.attempt, r.worker)
	}
	if v := c.leasesReissued.Value(); v != 0 {
		t.Errorf("dist_leases_reissued_total = %d, want 0", v)
	}

	if err := os.Remove(dir); err != nil {
		t.Fatal(err)
	}
	if err := os.Rename(moved, dir); err != nil {
		t.Fatal(err)
	}
	m, _, err := loadManifest(dir)
	if err != nil || m.Ranges[0].Attempt != 0 || m.Ranges[0].State != statePending {
		t.Fatalf("manifest after the failed grant: %+v, %v", m.Ranges, err)
	}
	code, lease := postLease(t, ts.URL, "w")
	if code != http.StatusOK || lease.Attempt != 1 {
		t.Fatalf("grant once writes work: HTTP %d, %+v; want 200 at attempt 1", code, lease)
	}
}

// scrapeGauges reads the coordinator's five ledger gauges from /metrics.
func scrapeGauges(t *testing.T, base string) map[string]int64 {
	t.Helper()
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	got := map[string]int64{}
	for _, line := range strings.Split(string(body), "\n") {
		f := strings.Fields(line)
		if len(f) != 2 {
			continue
		}
		switch f[0] {
		case "dist_leases_outstanding", "dist_ranges_done", "dist_ranges_total", "dist_roots_done", "dist_bicliques_total":
			v, err := strconv.ParseInt(f[1], 10, 64)
			if err != nil {
				t.Fatalf("%s: %v", line, err)
			}
			got[f[0]] = v
		}
	}
	return got
}

// TestCoordinatorGaugesMatchProgress: each ledger gauge on /metrics
// reads what Progress reports, mid-run and after the run completes.
func TestCoordinatorGaugesMatchProgress(t *testing.T) {
	g := testGraph(t, 3, 8, 8, 24)
	c, err := NewCoordinator(CoordOptions{
		Spec: testSpec(t, g, "AdaMBE", "none"),
		Dir:  t.TempDir(), Ranges: 2, LeaseTTL: time.Minute,
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(c.Handler())
	defer ts.Close()
	check := func(when string, want Progress) {
		t.Helper()
		got := scrapeGauges(t, ts.URL)
		for name, v := range map[string]int64{
			"dist_leases_outstanding": int64(want.LeasesOutstanding),
			"dist_ranges_done":        int64(want.RangesDone),
			"dist_ranges_total":       int64(want.RangesTotal),
			"dist_roots_done":         want.RootsDone,
			"dist_bicliques_total":    want.Bicliques,
		} {
			if n, ok := got[name]; !ok || n != v {
				t.Errorf("%s: %s = %d (present %v), Progress says %d", when, name, n, ok, v)
			}
		}
	}

	// One lease out, one wm frame merged.
	lease, ok, err := c.grantLease("w")
	if err != nil || !ok {
		t.Fatalf("no lease granted: %v", err)
	}
	d := fakeDigest(1, 2)
	if err := c.acceptFrame(lease.RangeID, lease.Attempt, "w", Frame{Type: "wm", From: lease.Resume, To: lease.Resume + 2, Delta: &d}); err != nil {
		t.Fatal(err)
	}
	p := c.Progress()
	if p.LeasesOutstanding != 1 || p.RangesTotal != 2 || p.RootsDone != 2 || p.Bicliques != 2 {
		t.Fatalf("mid-run progress: %+v", p)
	}
	check("mid-run", p)

	// Seal both ranges.
	empty := difftest.Digest{}
	if err := c.acceptFrame(lease.RangeID, lease.Attempt, "w", Frame{Type: "done", From: lease.Resume + 2, To: lease.End, Delta: &empty, Total: &d}); err != nil {
		t.Fatal(err)
	}
	lease, ok, err = c.grantLease("w")
	if err != nil || !ok {
		t.Fatalf("no second lease granted: %v", err)
	}
	d3 := fakeDigest(3)
	if err := c.acceptFrame(lease.RangeID, lease.Attempt, "w", Frame{Type: "done", From: lease.Resume, To: lease.End, Delta: &d3, Total: &d3}); err != nil {
		t.Fatal(err)
	}
	p = c.Progress()
	if !p.Complete || p.RangesDone != 2 || p.Bicliques != 3 || p.RootsDone != int64(g.NV()) {
		t.Fatalf("final progress: %+v", p)
	}
	check("complete", p)
}
