package obs

import (
	"testing"
	"time"

	"repro/internal/tle"
)

// TestNilSafety: every probe and recorder method the engine calls must be
// a no-op on a nil receiver — that IS the disabled path.
func TestNilSafety(t *testing.T) {
	var p *WorkerProbe
	p.Publish(&Counters{NodesLN: 1, Root: 7})
	p.SetState(StateBusy)

	var r *Recorder
	r.RunBegin(RunConfig{Workers: 4})
	r.Finish("none")
	r.SetPhase("enumerate")
	if r.Phase() != "" {
		t.Fatalf("nil recorder phase = %q, want empty", r.Phase())
	}
	if r.Worker(3) != nil {
		t.Fatal("nil recorder must hand out nil probes")
	}
}

func TestSnapshotSumsWorkers(t *testing.T) {
	r := NewRecorder(RunInfo{Algorithm: "ParAdaMBE", Dataset: "unit", Threads: 3, NU: 10, NV: 20, Edges: 40})
	shared := &tle.Shared{}
	shared.AddMem(1234)
	r.RunBegin(RunConfig{Workers: 3, Shared: shared, MemBudgetBytes: 1 << 20})

	for w := 0; w < 3; w++ {
		p := r.Worker(w)
		n := int64(w + 1)
		p.Publish(&Counters{
			NodesLN: n, NodesBit: n, Bicliques: n, Bitmaps: 1, Promotions: 1,
			ArenaReuse: 1, Tasks: 1, Steals: 1, Root: int64(4*w) + 1,
		})
		p.SetState(StateBusy)
	}

	s := r.Snapshot()
	if s.RunID != r.RunID() || s.Algorithm != "ParAdaMBE" || s.Dataset != "unit" || s.Threads != 3 {
		t.Fatalf("snapshot identity fields wrong: %+v", s)
	}
	if s.Phase != "enumerate" {
		t.Fatalf("phase = %q, want enumerate", s.Phase)
	}
	if s.NodesLN != 6 || s.NodesBit != 6 || s.Nodes != 12 {
		t.Fatalf("node sums = ln %d bit %d total %d, want 6/6/12", s.NodesLN, s.NodesBit, s.Nodes)
	}
	if s.Bicliques != 6 || s.Bitmaps != 3 || s.BitPromotions != 3 || s.ArenaReuse != 3 || s.Tasks != 3 || s.Steals != 3 {
		t.Fatalf("sums wrong: %+v", s)
	}
	if s.RootDone != 9 { // max over workers of the published Root
		t.Fatalf("RootDone = %d, want 9", s.RootDone)
	}
	if s.RootTotal != 20 { // falls back to RunInfo.NV
		t.Fatalf("RootTotal = %d, want 20", s.RootTotal)
	}
	if s.MemBytes != 1234 || s.MemBudgetBytes != 1<<20 {
		t.Fatalf("mem gauge = %d budget %d", s.MemBytes, s.MemBudgetBytes)
	}
	if s.StopReason != "none" {
		t.Fatalf("stop reason = %q, want none", s.StopReason)
	}
	if len(s.Workers) != 3 {
		t.Fatalf("worker rows = %d, want 3", len(s.Workers))
	}
	for i, w := range s.Workers {
		if w.ID != i || w.State != "busy" {
			t.Fatalf("worker row %d = %+v", i, w)
		}
		if w.Nodes != int64(2*(i+1)) || w.Bicliques != int64(i+1) {
			t.Fatalf("worker row %d counters = %+v", i, w)
		}
	}
}

// TestSnapshotMonotone: every run-total counter must be non-decreasing
// between two snapshots taken around concurrent-looking updates — the
// invariant the CI /debug/progress poller enforces.
func TestSnapshotMonotone(t *testing.T) {
	r := NewRecorder(RunInfo{Threads: 2})
	r.RunBegin(RunConfig{Workers: 2, Frontier: 100})
	p := r.Worker(1)
	prev := r.Snapshot()
	var c Counters
	for i := 0; i < 50; i++ {
		c.NodesLN++
		if i%3 == 0 {
			c.Bicliques++
		}
		c.Root = int64(i) + 1
		p.Publish(&c)
		cur := r.Snapshot()
		if cur.Nodes < prev.Nodes || cur.Bicliques < prev.Bicliques || cur.RootDone < prev.RootDone {
			t.Fatalf("snapshot regressed: %+v -> %+v", prev, cur)
		}
		prev = cur
	}
}

func TestFinishOverridesStopReason(t *testing.T) {
	r := NewRecorder(RunInfo{})
	shared := &tle.Shared{}
	r.RunBegin(RunConfig{Workers: 1, Shared: shared})
	shared.Trip(tle.Canceled)
	if got := r.Snapshot().StopReason; got != "canceled" {
		t.Fatalf("live stop reason = %q, want canceled", got)
	}
	r.Finish("deadline")
	s := r.Snapshot()
	if s.StopReason != "deadline" {
		t.Fatalf("final stop reason = %q, want deadline", s.StopReason)
	}
	if s.Phase != "done" {
		t.Fatalf("phase after Finish = %q, want done", s.Phase)
	}
	for _, w := range s.Workers {
		if w.State != "done" {
			t.Fatalf("worker state after Finish = %q, want done", w.State)
		}
	}
}

func TestWorkerGrowsProbes(t *testing.T) {
	r := NewRecorder(RunInfo{})
	p5 := r.Worker(5)
	if p5 == nil {
		t.Fatal("Worker(5) returned nil on a live recorder")
	}
	if r.Worker(5) != p5 {
		t.Fatal("Worker must be stable per index")
	}
	p5.Publish(&Counters{NodesBit: 1})
	if s := r.Snapshot(); s.NodesBit != 1 || len(s.Workers) != 6 {
		t.Fatalf("grown snapshot = %+v", s)
	}
}

func TestDeadlineRemaining(t *testing.T) {
	r := NewRecorder(RunInfo{})
	r.RunBegin(RunConfig{Workers: 1, Deadline: time.Now().Add(time.Hour)})
	s := r.Snapshot()
	if s.DeadlineMS <= 0 || s.DeadlineMS > 3.7e6 {
		t.Fatalf("DeadlineMS = %v, want ~3.6e6", s.DeadlineMS)
	}
}

func TestWorkerStateStrings(t *testing.T) {
	want := map[WorkerState]string{
		StateIdle: "idle", StateBusy: "busy", StateStealing: "steal",
		StateParked: "park", StateDone: "done",
	}
	for s, name := range want {
		if s.String() != name {
			t.Fatalf("%d.String() = %q, want %q", s, s.String(), name)
		}
	}
}
