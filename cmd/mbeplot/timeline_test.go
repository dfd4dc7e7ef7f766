package main

import (
	"encoding/json"
	"encoding/xml"
	"math"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"repro/internal/obs"
)

// svgDoc is the part of the chart the tests read back.
type svgDoc struct {
	Rects []struct {
		X      string `xml:"x,attr"`
		Width  string `xml:"width,attr"`
		Height string `xml:"height,attr"`
		Fill   string `xml:"fill,attr"`
	} `xml:"rect"`
	Texts []struct {
		Anchor    string `xml:"text-anchor,attr"`
		Transform string `xml:"transform,attr"`
		Body      string `xml:",chardata"`
	} `xml:"text"`
}

// parseSVG fails the test unless svg is well-formed XML.
func parseSVG(t *testing.T, svg string) svgDoc {
	t.Helper()
	var doc svgDoc
	if err := xml.Unmarshal([]byte(svg), &doc); err != nil {
		t.Fatalf("SVG not well-formed: %v\n%s", err, svg[:min(len(svg), 400)])
	}
	if !strings.HasSuffix(svg, "</svg>\n") {
		t.Fatal("SVG does not end in </svg>")
	}
	return doc
}

// legend returns the legend entries in order: the only text elements
// without an anchor.
func (d svgDoc) legend() []string {
	var out []string
	for _, tx := range d.Texts {
		if tx.Anchor == "" {
			out = append(out, tx.Body)
		}
	}
	return out
}

// tickLabels returns the slanted time labels under the bars.
func (d svgDoc) tickLabels() []string {
	var out []string
	for _, tx := range d.Texts {
		if strings.HasPrefix(tx.Transform, "rotate(-40") {
			out = append(out, tx.Body)
		}
	}
	return out
}

func TestStackedPercent(t *testing.T) {
	doc := parseSVG(t, stackedPercent("Fig. 5", []string{"UL", "UF", "empty"}, []series{
		{name: "inside", values: []float64{30, 10, 0}},
		{name: "outside", values: []float64{70, 90, 0}},
	}))
	// background + 2 categories × 2 segments (the all-zero category draws
	// nothing) + 2 legend swatches.
	if len(doc.Rects) != 1+4+2 {
		t.Fatalf("rect count = %d", len(doc.Rects))
	}
}

// writeEvents writes evs as a JSONL stream and returns its path.
func writeEvents(t *testing.T, evs []obs.Event) string {
	t.Helper()
	var b strings.Builder
	for _, e := range evs {
		line, err := json.Marshal(e)
		if err != nil {
			t.Fatal(err)
		}
		b.Write(line)
		b.WriteByte('\n')
	}
	path := filepath.Join(t.TempDir(), "run.jsonl")
	if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func sample(tms float64, states ...string) obs.Event {
	snap := &obs.Snapshot{}
	for i, s := range states {
		snap.Workers = append(snap.Workers, obs.WorkerSnap{ID: i, State: s})
	}
	return obs.Event{Type: "sample", TMS: tms, Snap: snap}
}

// render runs renderTimeline on evs and returns the SVG it wrote.
func render(t *testing.T, evs []obs.Event) (string, error) {
	t.Helper()
	in := writeEvents(t, evs)
	out := timelineOutPath(in)
	if filepath.Base(out) != "run_workers.svg" {
		t.Fatalf("default output %q, want run_workers.svg", out)
	}
	if err := renderTimeline(in, out); err != nil {
		return "", err
	}
	svg, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	return string(svg), nil
}

func TestRenderTimeline(t *testing.T) {
	ticks := [][]string{
		{"busy", "busy", "idle", "spin"},
		{"steal", "busy", "done", "aaa"},
		{"park", "idle", "done", "done"},
	}
	evs := []obs.Event{{Type: "run_start", Algorithm: "ParAdaMBE", Threads: 4, Dataset: "a<b&c"}}
	for i, states := range ticks {
		evs = append(evs, sample(float64(i)*250, states...))
		evs = append(evs, sample(float64(i)*250+1)) // no worker rows: skipped
	}
	svg, err := render(t, evs)
	if err != nil {
		t.Fatal(err)
	}
	doc := parseSVG(t, svg)
	if !strings.Contains(svg, ">Worker utilization — ParAdaMBE t=4 on a&lt;b&amp;c</text>") {
		t.Error("title missing or not escaped")
	}

	legend := []string{"busy", "steal", "park", "idle", "done", "aaa", "spin"}
	if got := doc.legend(); strings.Join(got, " ") != strings.Join(legend, " ") {
		t.Errorf("legend %v, want %v", got, legend)
	}
	if got := doc.tickLabels(); strings.Join(got, " ") != "0.0s 0.2s 0.5s" {
		t.Errorf("tick labels %v, want [0.0s 0.2s 0.5s]", got)
	}

	// Between the background and the legend swatches, each tick stacks one
	// segment per state its workers are in, in legend order, colored as
	// the state's swatch and as tall as the state's share of the tick's
	// workers. A state no worker of the tick is in draws no segment, so
	// every segment has a non-zero height.
	bars := doc.Rects[1 : len(doc.Rects)-len(legend)]
	swatches := doc.Rects[len(doc.Rects)-len(legend):]
	prevX := math.Inf(-1)
	for ti, states := range ticks {
		tickX := ""
		for si, state := range legend {
			n := 0
			for _, s := range states {
				if s == state {
					n++
				}
			}
			if n == 0 {
				continue
			}
			if len(bars) == 0 {
				t.Fatalf("tick %d %s: no segment left", ti, state)
			}
			seg := bars[0]
			bars = bars[1:]
			h, err := strconv.ParseFloat(seg.Height, 64)
			if err != nil {
				t.Fatal(err)
			}
			if want := plotH * float64(n) / float64(len(states)); math.Abs(h-want) > 0.05 {
				t.Errorf("tick %d %s: height %v, want %.1f", ti, state, h, want)
			}
			if seg.Fill != swatches[si].Fill {
				t.Errorf("tick %d %s: fill %s, legend swatch %s", ti, state, seg.Fill, swatches[si].Fill)
			}
			if tickX == "" {
				x, err := strconv.ParseFloat(seg.X, 64)
				if err != nil {
					t.Fatal(err)
				}
				if x <= prevX {
					t.Errorf("tick %d starts at x=%v, not right of the previous tick's %v", ti, x, prevX)
				}
				tickX, prevX = seg.X, x
			} else if seg.X != tickX {
				t.Errorf("tick %d %s: x=%s, the tick's other segments are at x=%s", ti, state, seg.X, tickX)
			}
		}
	}
	if len(bars) != 0 {
		t.Fatalf("%d bar segments beyond one per state present in each tick", len(bars))
	}
}

func TestRenderTimelineSubsamplesLongRuns(t *testing.T) {
	var evs []obs.Event
	for i := 0; i < 100; i++ {
		evs = append(evs, sample(float64(i)*100, "busy", "idle"))
	}
	svg, err := render(t, evs)
	if err != nil {
		t.Fatal(err)
	}
	doc := parseSVG(t, svg)
	labels := doc.tickLabels()
	if len(labels) != 48 {
		t.Fatalf("%d tick labels for 100 samples, want 48", len(labels))
	}
	if labels[0] != "0.0s" || labels[47] != "9.7s" {
		t.Errorf("labels run %s … %s, want 0.0s … 9.7s", labels[0], labels[47])
	}
	if len(doc.Rects) != 1+48*2+2 {
		t.Errorf("rect count = %d, want %d", len(doc.Rects), 1+48*2+2)
	}
}

func TestRenderTimelineNeedsWorkerSamples(t *testing.T) {
	_, err := render(t, []obs.Event{
		{Type: "run_start", Algorithm: "AdaMBE", Threads: 1},
		sample(10),
		{Type: "run_end", TMS: 20},
	})
	if err == nil || !strings.Contains(err.Error(), "no sample events with worker rows") {
		t.Fatalf("err = %v, want a no-worker-samples error", err)
	}
}
