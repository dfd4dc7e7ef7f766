package main

import (
	"fmt"
	"os"
	"sort"
	"strings"

	"repro/internal/obs"
)

// knownStates orders the canonical worker states in the legend; states the
// schema grows later still render, appended after these.
var knownStates = []string{"busy", "steal", "park", "idle", "done"}

// renderTimeline reads a JSONL observability event stream (written by
// `mbe -events` or any obs.JSONLSink) and renders the worker-utilization
// timeline: for each sampler tick, the share of workers in each state as a
// 100%-stacked bar. Long runs are subsampled to at most 48 ticks so the
// time labels stay readable.
func renderTimeline(eventsPath, outPath string) error {
	f, err := os.Open(eventsPath)
	if err != nil {
		return err
	}
	defer f.Close()
	evs, err := obs.ReadEvents(f)
	if err != nil {
		return err
	}

	type tick struct {
		label  string
		counts map[string]float64
	}
	title := "Worker utilization"
	var ticks []tick
	seen := map[string]bool{}
	for _, e := range evs {
		switch e.Type {
		case "run_start":
			title = fmt.Sprintf("Worker utilization — %s t=%d", e.Algorithm, e.Threads)
			if e.Dataset != "" {
				title += " on " + e.Dataset
			}
		case "sample":
			if e.Snap == nil || len(e.Snap.Workers) == 0 {
				continue
			}
			c := map[string]float64{}
			for _, w := range e.Snap.Workers {
				c[w.State]++
				seen[w.State] = true
			}
			ticks = append(ticks, tick{label: fmt.Sprintf("%.1fs", e.TMS/1000), counts: c})
		}
	}
	if len(ticks) == 0 {
		return fmt.Errorf("%s has no sample events with worker rows (was the run observed? see mbe -events)", eventsPath)
	}
	const maxTicks = 48
	if len(ticks) > maxTicks {
		sub := make([]tick, 0, maxTicks)
		for i := 0; i < maxTicks; i++ {
			sub = append(sub, ticks[i*len(ticks)/maxTicks])
		}
		ticks = sub
	}

	var states []string
	for _, s := range knownStates {
		if seen[s] {
			states = append(states, s)
			delete(seen, s)
		}
	}
	var extra []string
	for s := range seen {
		extra = append(extra, s)
	}
	sort.Strings(extra)
	states = append(states, extra...)

	cats := make([]string, len(ticks))
	bars := make([]series, len(states))
	for si, s := range states {
		bars[si] = series{name: s, values: make([]float64, len(ticks))}
	}
	for ti, t := range ticks {
		cats[ti] = t.label
		for si, s := range states {
			bars[si].values[ti] = t.counts[s]
		}
	}
	return os.WriteFile(outPath, []byte(stackedPercent(title, cats, bars)), 0o666)
}

// timelineOutPath derives the SVG path from the events path.
func timelineOutPath(eventsPath string) string {
	base := strings.TrimSuffix(eventsPath, ".jsonl")
	return base + "_workers.svg"
}

// series is one legend entry of a stacked bar chart: its value in each
// category.
type series struct {
	name   string
	values []float64
}

// Chart geometry in pixels, and the text style.
const (
	chartW   = 760
	chartH   = 420
	marginL  = 70
	marginR  = 20
	marginT  = 40
	marginB  = 84
	plotW    = chartW - marginL - marginR
	plotH    = chartH - marginT - marginB
	fontFace = `font-family="Helvetica,Arial,sans-serif"`
)

// palette is a color-blind-safe cycle.
var palette = []string{
	"#4477aa", "#ee6677", "#228833", "#ccbb44", "#66ccee", "#aa3377",
	"#bbbbbb", "#000000",
}

// escape makes text safe inside an SVG element or attribute.
var escape = strings.NewReplacer("&", "&amp;", "<", "&lt;", ">", "&gt;", `"`, "&quot;").Replace

// stackedPercent renders 100%-stacked bars as a self-contained SVG: one
// bar per category, split into each series' share of the category total,
// on a fixed 0–100% axis of workers. A category whose total is 0 draws no
// bar, and a series whose value in a category is 0 draws no segment in
// it. cats must be non-empty, and every series needs a value per
// category.
func stackedPercent(title string, cats []string, ss []series) string {
	var b strings.Builder
	fmt.Fprintf(&b, `<svg xmlns="http://www.w3.org/2000/svg" width="%d" height="%d" viewBox="0 0 %d %d">`+"\n",
		chartW, chartH, chartW, chartH)
	fmt.Fprintf(&b, `<rect width="%d" height="%d" fill="white"/>`+"\n", chartW, chartH)
	fmt.Fprintf(&b, `<text x="%d" y="24" text-anchor="middle" font-size="16" %s>%s</text>`+"\n",
		chartW/2, fontFace, escape(title))

	// Y axis, gridlines every 20%.
	fmt.Fprintf(&b, `<line x1="%d" y1="%d" x2="%d" y2="%d" stroke="black"/>`+"\n",
		marginL, marginT, marginL, marginT+plotH)
	for pct := 0; pct <= 100; pct += 20 {
		y := float64(marginT) + float64(plotH)*(1-float64(pct)/100)
		fmt.Fprintf(&b, `<line x1="%d" y1="%.1f" x2="%d" y2="%.1f" stroke="#dddddd"/>`+"\n",
			marginL, y, marginL+plotW, y)
		fmt.Fprintf(&b, `<text x="%d" y="%.1f" text-anchor="end" font-size="11" %s>%d</text>`+"\n",
			marginL-6, y+4, fontFace, pct)
	}
	fmt.Fprintf(&b, `<text x="16" y="%d" text-anchor="middle" font-size="12" %s transform="rotate(-90 16 %d)">%% of workers</text>`+"\n",
		marginT+plotH/2, fontFace, marginT+plotH/2)

	// X axis with one slanted label per category.
	n := len(cats)
	fmt.Fprintf(&b, `<line x1="%d" y1="%d" x2="%d" y2="%d" stroke="black"/>`+"\n",
		marginL, marginT+plotH, marginL+plotW, marginT+plotH)
	for i, c := range cats {
		x := float64(marginL) + (float64(i)+0.5)*float64(plotW)/float64(n)
		fmt.Fprintf(&b, `<text x="%.1f" y="%d" text-anchor="end" font-size="11" %s transform="rotate(-40 %.1f %d)">%s</text>`+"\n",
			x, marginT+plotH+16, fontFace, x, marginT+plotH+16, escape(c))
	}

	// Bars, stacked bottom-up in series order.
	groupW := float64(plotW) / float64(n)
	for ci := range cats {
		total := 0.0
		for _, s := range ss {
			total += s.values[ci]
		}
		if total <= 0 {
			continue
		}
		yBase := float64(marginT + plotH)
		for si, s := range ss {
			if s.values[ci] <= 0 {
				continue
			}
			frac := s.values[ci] / total * 100
			h := float64(plotH) * frac / 100
			x := float64(marginL) + float64(ci)*groupW + groupW*0.15
			fmt.Fprintf(&b, `<rect x="%.1f" y="%.1f" width="%.1f" height="%.1f" fill="%s"/>`+"\n",
				x, yBase-h, groupW*0.7, h, palette[si%len(palette)])
			yBase -= h
		}
	}

	// Legend along the bottom edge.
	x, y := marginL, chartH-14
	for i, s := range ss {
		fmt.Fprintf(&b, `<rect x="%d" y="%d" width="12" height="12" fill="%s"/>`+"\n", x, y-10, palette[i%len(palette)])
		fmt.Fprintf(&b, `<text x="%d" y="%d" font-size="11" %s>%s</text>`+"\n", x+16, y, fontFace, escape(s.name))
		x += 16 + 8*len(s.name) + 24
	}
	b.WriteString("</svg>\n")
	return b.String()
}
