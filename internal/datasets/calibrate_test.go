package datasets

import (
	"flag"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/order"
)

var calibrate = flag.Bool("calibrate", false, "run TestCalibration at full scale: a 30 s AdaMBE deadline per dataset")

// TestCalibration prints per-dataset stats and AdaMBE counts/runtimes.
// Run the full calibration with:
//
//	go test ./internal/datasets -run TestCalibration -calibrate -v
//
// Without -calibrate every dataset is still built, summarized and
// enumerated, but under a 100 ms deadline, so the check stays cheap
// enough for every test run. It is skipped in -short mode.
func TestCalibration(t *testing.T) {
	if testing.Short() {
		t.Skip("calibration skipped in short mode")
	}
	budget := 100 * time.Millisecond
	if *calibrate {
		budget = 30 * time.Second
	}
	for _, s := range All() {
		s := s
		t.Run(s.Acronym, func(t *testing.T) {
			g := s.Build()
			st := graph.Summarize(g)
			og := order.Apply(g, order.DegreeAscending, 0)
			start := time.Now()
			res, err := core.Enumerate(og, core.Options{
				Variant:  core.Ada,
				Deadline: time.Now().Add(budget),
			})
			if err != nil {
				t.Fatal(err)
			}
			t.Logf("%-6s |U|=%-7d |V|=%-7d |E|=%-8d MB=%-10d timedOut=%v elapsed=%v",
				s.Acronym, st.NU, st.NV, st.Edges, res.Count, res.TimedOut, time.Since(start).Round(time.Millisecond))
		})
	}
}
