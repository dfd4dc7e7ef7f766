package harness

import (
	"fmt"
	"strconv"
	"text/tabwriter"
	"time"

	"repro/internal/core"
	"repro/internal/datasets"
	"repro/internal/engine"
	"repro/internal/graph"
	"repro/internal/order"
)

var generalAcros = []string{"UL", "UF", "Mti", "TM", "AM", "WC", "YG", "SO", "Pa", "IM", "BX", "GH"}
var largerAcros = []string{"AM", "WC", "YG", "SO", "Pa", "IM", "BX", "GH"} // the paper's "eight larger datasets"

func quickCut(cfg Config, names []string, n int) []string {
	if cfg.Quick && len(names) > n {
		return names[:n]
	}
	return names
}

// Table1 reproduces Table I: dataset statistics plus the measured
// maximal-biclique count of every analogue (counted with ParAdaMBE under
// the TLE budget), next to the paper's original numbers.
func Table1(cfg Config) error {
	specs, err := cfg.selectSpecs(quickCut(cfg, append(append([]string{}, generalAcros...), "ceb", "DBT"), 6))
	if err != nil {
		return err
	}
	w := tabwriter.NewWriter(cfg.out(), 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "Table I — dataset statistics (synthetic analogues; paper values in parentheses)")
	fmt.Fprintln(w, "dataset\t|U|\t|V|\t|E|\tmeasured MB\tpaper MB\ttime")
	rows := [][]string{{"dataset", "nu", "nv", "edges", "measured_mb", "paper_mb", "timed_out"}}
	for _, s := range specs {
		if err := cfg.ctx().Err(); err != nil {
			return err
		}
		g := s.Build()
		st := graph.Summarize(g)
		r, err := RunAlgorithm(g, AlgoParAdaMBE, cfg, nil)
		if err != nil {
			return err
		}
		count := strconv.FormatInt(r.Count, 10)
		if r.TimedOut {
			count = "≥" + count
		}
		fmt.Fprintf(w, "%s\t%d\t%d\t%d\t%s\t%d\t%s\n",
			s.Acronym, st.NU, st.NV, st.Edges, count, s.PaperMB, fmtRun(r))
		rows = append(rows, []string{
			s.Acronym, strconv.Itoa(st.NU), strconv.Itoa(st.NV),
			strconv.FormatInt(st.Edges, 10), strconv.FormatInt(r.Count, 10),
			strconv.FormatInt(s.PaperMB, 10), strconv.FormatBool(r.TimedOut),
		})
	}
	if err := w.Flush(); err != nil {
		return err
	}
	return writeCSV(cfg, "table1", rows)
}

// Fig4 reproduces Figure 4: the joint (|L|, |C|) size distribution of
// computational subgraphs, measured on the Baseline engine. The paper's
// headline statistic — the share of CGs with both |L| and |C| below 32 —
// is printed alongside the bucket table.
func Fig4(cfg Config) error {
	specs, err := cfg.selectSpecs(quickCut(cfg, generalAcros, 4))
	if err != nil {
		return err
	}
	var m core.Metrics
	for _, s := range specs {
		if err := cfg.ctx().Err(); err != nil {
			return err
		}
		g := s.Build()
		if _, err := RunAlgorithm(g, AlgoBaseline, cfg, &m); err != nil {
			return err
		}
	}
	var total, small int64
	for i := range m.CGHist {
		for j := range m.CGHist[i] {
			n := m.CGHist[i][j]
			total += n
			if i < 5 && j < 5 { // both < 2^5 = 32
				small += n
			}
		}
	}
	out := cfg.out()
	fmt.Fprintf(out, "Fig. 4 — CG size distribution over %d nodes (datasets: %v)\n", total, specNames(specs))
	if total > 0 {
		fmt.Fprintf(out, "share of CGs with |L| < 32 and |C| < 32: %.1f%% (paper: 90%%)\n", 100*float64(small)/float64(total))
	}
	rows := [][]string{{"log2_L_bucket", "log2_C_bucket", "share_pct"}}
	fmt.Fprintln(out, "bucket shares (rows: |L| in [2^i, 2^i+1); cols: |C|; % of nodes; top 8×8):")
	for i := 0; i < 8; i++ {
		for j := 0; j < 8; j++ {
			pct := 0.0
			if total > 0 {
				pct = 100 * float64(m.CGHist[i][j]) / float64(total)
			}
			fmt.Fprintf(out, "%6.2f", pct)
			rows = append(rows, []string{strconv.Itoa(i), strconv.Itoa(j), fmt.Sprintf("%.3f", pct)})
		}
		fmt.Fprintln(out)
	}
	return writeCSV(cfg, "fig4", rows)
}

// Fig5 reproduces Figure 5: the percentage of vertex accesses inside vs
// outside computational subgraphs under the Baseline engine, per dataset.
func Fig5(cfg Config) error {
	specs, err := cfg.selectSpecs(quickCut(cfg, generalAcros, 4))
	if err != nil {
		return err
	}
	w := tabwriter.NewWriter(cfg.out(), 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "Fig. 5 — vertex accesses inside/outside CGs (Baseline; paper: >90% outside on most datasets)")
	fmt.Fprintln(w, "dataset\tinside %\toutside %\ttotal accesses")
	rows := [][]string{{"dataset", "inside_pct", "outside_pct", "total"}}
	for _, s := range specs {
		if err := cfg.ctx().Err(); err != nil {
			return err
		}
		g := s.Build()
		var m core.Metrics
		if _, err := RunAlgorithm(g, AlgoBaseline, cfg, &m); err != nil {
			return err
		}
		total := m.AccessesInsideCG + m.AccessesOutsideCG
		in, outp := 0.0, 0.0
		if total > 0 {
			in = 100 * float64(m.AccessesInsideCG) / float64(total)
			outp = 100 * float64(m.AccessesOutsideCG) / float64(total)
		}
		fmt.Fprintf(w, "%s\t%.1f\t%.1f\t%d\n", s.Acronym, in, outp, total)
		rows = append(rows, []string{s.Acronym, fmt.Sprintf("%.2f", in), fmt.Sprintf("%.2f", outp), strconv.FormatInt(total, 10)})
	}
	if err := w.Flush(); err != nil {
		return err
	}
	return writeCSV(cfg, "fig5", rows)
}

// Fig8 reproduces Figure 8: runtime (a) and peak memory (b) of four serial
// and three parallel algorithms across the general datasets.
func Fig8(cfg Config) error {
	specs, err := cfg.selectSpecs(quickCut(cfg, generalAcros, 4))
	if err != nil {
		return err
	}
	algos := append(SerialAlgos(), ParallelAlgos()...)
	w := tabwriter.NewWriter(cfg.out(), 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "Fig. 8 — overall evaluation (runtime | peak heap MiB); TLE budget", cfg.tle())
	header := "dataset"
	for _, a := range algos {
		header += "\t" + a
	}
	fmt.Fprintln(w, header)
	rows := [][]string{{"dataset", "algorithm", "seconds", "timed_out", "peak_heap_mib", "count"}}
	for _, s := range specs {
		if err := cfg.ctx().Err(); err != nil {
			return err
		}
		g := s.Build()
		line := s.Acronym
		for _, a := range algos {
			r, err := RunAlgorithm(g, a, cfg, nil)
			if err != nil {
				return err
			}
			line += fmt.Sprintf("\t%s|%s", fmtRun(r), fmtMB(r.PeakHeap))
			rows = append(rows, []string{
				s.Acronym, a, fmt.Sprintf("%.3f", r.Elapsed.Seconds()),
				strconv.FormatBool(r.TimedOut), fmtMB(r.PeakHeap), strconv.FormatInt(r.Count, 10),
			})
		}
		fmt.Fprintln(w, line)
	}
	if err := w.Flush(); err != nil {
		return err
	}
	return writeCSV(cfg, "fig8", rows)
}

// Fig9 reproduces Figure 9: (a) runtime of every algorithm on the CebWiki
// analogue; (b) maximal bicliques enumerated within the TLE budget on the
// TVTropes analogue.
func Fig9(cfg Config) error {
	specs, err := cfg.selectSpecs([]string{"ceb", "DBT"})
	if err != nil {
		return err
	}
	algos := append(SerialAlgos(), ParallelAlgos()...)
	w := tabwriter.NewWriter(cfg.out(), 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "Fig. 9 — large datasets; TLE budget", cfg.tle())
	fmt.Fprintln(w, "dataset\talgorithm\ttime\tcount\ttimed out")
	rows := [][]string{{"dataset", "algorithm", "seconds", "count", "timed_out"}}
	for _, s := range specs {
		if err := cfg.ctx().Err(); err != nil {
			return err
		}
		g := s.Build()
		for _, a := range algos {
			r, err := RunAlgorithm(g, a, cfg, nil)
			if err != nil {
				return err
			}
			fmt.Fprintf(w, "%s\t%s\t%s\t%d\t%v\n", s.Acronym, a, fmtRun(r), r.Count, r.TimedOut)
			rows = append(rows, []string{
				s.Acronym, a, fmt.Sprintf("%.3f", r.Elapsed.Seconds()),
				strconv.FormatInt(r.Count, 10), strconv.FormatBool(r.TimedOut),
			})
		}
	}
	if err := w.Flush(); err != nil {
		return err
	}
	return writeCSV(cfg, "fig9", rows)
}

// Fig10 reproduces Figure 10: the breakdown analysis of the two AdaMBE
// techniques — (a) runtime and (b) peak memory of Baseline / AdaMBE-LN /
// AdaMBE-BIT / AdaMBE; (c) nodes with non-maximal bicliques under Baseline
// vs LN; (d) the small-node/large-node time split under Baseline vs BIT.
func Fig10(cfg Config) error {
	specs, err := cfg.selectSpecs(quickCut(cfg, largerAcros, 3))
	if err != nil {
		return err
	}
	variants := []string{AlgoBaseline, AlgoLN, AlgoBIT, AlgoAdaMBE}
	w := tabwriter.NewWriter(cfg.out(), 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "Fig. 10 — breakdown analysis (time | peak heap MiB | non-maximal nodes | small/large-node time)")
	fmt.Fprintln(w, "dataset\tvariant\ttime\theap MiB\tnon-max nodes\tsmall time\tlarge time")
	rows := [][]string{{"dataset", "variant", "seconds", "peak_heap_mib", "nonmax_nodes", "small_seconds", "large_seconds"}}
	for _, s := range specs {
		if err := cfg.ctx().Err(); err != nil {
			return err
		}
		g := s.Build()
		for _, v := range variants {
			var m core.Metrics
			r, err := RunAlgorithm(g, v, cfg, &m)
			if err != nil {
				return err
			}
			fmt.Fprintf(w, "%s\t%s\t%s\t%s\t%d\t%s\t%s\n",
				s.Acronym, v, fmtRun(r), fmtMB(r.PeakHeap), m.NodesNonMaximal,
				fmtDur(m.SmallNodeTime), fmtDur(m.LargeNodeTime))
			rows = append(rows, []string{
				s.Acronym, v, fmt.Sprintf("%.3f", r.Elapsed.Seconds()), fmtMB(r.PeakHeap),
				strconv.FormatInt(m.NodesNonMaximal, 10),
				fmt.Sprintf("%.3f", m.SmallNodeTime.Seconds()),
				fmt.Sprintf("%.3f", m.LargeNodeTime.Seconds()),
			})
		}
	}
	if err := w.Flush(); err != nil {
		return err
	}
	return writeCSV(cfg, "fig10", rows)
}

// Fig11 reproduces Figure 11: AdaMBE-BIT runtime as the bitmap threshold τ
// sweeps from 4 to 512 on two time-consuming datasets; the paper's finding
// is a minimum at τ = 64 (one machine word).
func Fig11(cfg Config) error {
	specs, err := cfg.selectSpecs(quickCut(cfg, []string{"BX", "GH"}, 1))
	if err != nil {
		return err
	}
	taus := []int{4, 8, 16, 32, 64, 128, 256, 512}
	w := tabwriter.NewWriter(cfg.out(), 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "Fig. 11 — impact of threshold τ (AdaMBE-BIT runtime).")
	fmt.Fprintln(w, "The 'padded' series uses the paper's cost model (masks sized ⌈τ/64⌉ words);")
	fmt.Fprintln(w, "the 'adaptive' series is this implementation's default (masks sized to the actual |L*|).")
	fmt.Fprintln(w, "dataset\tτ\tpadded time\tadaptive time\tbitmaps created")
	rows := [][]string{{"dataset", "tau", "padded_seconds", "adaptive_seconds", "bitmaps"}}
	for _, s := range specs {
		if err := cfg.ctx().Err(); err != nil {
			return err
		}
		g := s.Build()
		og := order.Apply(g, order.DegreeAscending, 0)
		for _, tau := range taus {
			run := func(pad bool) (time.Duration, bool, int64, error) {
				var m core.Metrics
				deadline := time.Now().Add(cfg.tle())
				start := time.Now()
				res, err := core.Enumerate(og, core.Options{
					Variant: core.BIT, Tau: tau, Deadline: deadline,
					Context: cfg.ctx(), Metrics: &m, PadBitmaps: pad,
				})
				return time.Since(start), res.TimedOut, m.BitmapsCreated, err
			}
			padEl, padTLE, bitmaps, err := run(true)
			if err != nil {
				return err
			}
			adEl, adTLE, _, err := run(false)
			if err != nil {
				return err
			}
			tag := func(el time.Duration, tle bool) string {
				t := fmtDur(el)
				if tle {
					t = "TLE(" + t + ")"
				}
				return t
			}
			fmt.Fprintf(w, "%s\t%d\t%s\t%s\t%d\n",
				s.Acronym, tau, tag(padEl, padTLE), tag(adEl, adTLE), bitmaps)
			rows = append(rows, []string{
				s.Acronym, strconv.Itoa(tau),
				fmt.Sprintf("%.3f", padEl.Seconds()),
				fmt.Sprintf("%.3f", adEl.Seconds()),
				strconv.FormatInt(bitmaps, 10),
			})
		}
	}
	if err := w.Flush(); err != nil {
		return err
	}
	return writeCSV(cfg, "fig11", rows)
}

// Fig12 reproduces Figure 12: AdaMBE runtime under the three vertex
// orderings (ASC / RAND / UC); ordering time is included, so UC pays its
// unilateral-core computation as in the paper.
func Fig12(cfg Config) error {
	specs, err := cfg.selectSpecs(quickCut(cfg, largerAcros, 3))
	if err != nil {
		return err
	}
	kinds := []order.Kind{order.DegreeAscending, order.Random, order.UnilateralCore}
	w := tabwriter.NewWriter(cfg.out(), 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "Fig. 12 — impact of vertex ordering (AdaMBE)")
	fmt.Fprintln(w, "dataset\tordering\ttime\tcount")
	rows := [][]string{{"dataset", "ordering", "seconds", "count"}}
	for _, s := range specs {
		if err := cfg.ctx().Err(); err != nil {
			return err
		}
		g := s.Build()
		for _, k := range kinds {
			deadline := time.Now().Add(cfg.tle())
			start := time.Now()
			res, err := engine.AdaMBE.Enumerate(g, k, 7, core.Options{Deadline: deadline, Context: cfg.ctx()}, nil)
			if err != nil {
				return err
			}
			el := time.Since(start)
			tag := fmtDur(el)
			if res.TimedOut {
				tag = "TLE(" + tag + ")"
			}
			fmt.Fprintf(w, "%s\t%s\t%s\t%d\n", s.Acronym, k, tag, res.Count)
			rows = append(rows, []string{s.Acronym, k.String(), fmt.Sprintf("%.3f", el.Seconds()), strconv.FormatInt(res.Count, 10)})
		}
	}
	if err := w.Flush(); err != nil {
		return err
	}
	return writeCSV(cfg, "fig12", rows)
}

// Fig13 reproduces Figure 13 (with Table II): serial algorithm runtime as
// the LiveJournal sample grows from 10% to 50% of the parent's edges.
func Fig13(cfg Config) error {
	def := []string{"LJ10", "LJ20", "LJ30", "LJ40", "LJ50"}
	specs, err := cfg.selectSpecs(quickCut(cfg, def, 2))
	if err != nil {
		return err
	}
	w := tabwriter.NewWriter(cfg.out(), 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "Fig. 13 / Table II — impact of dataset size (serial algorithms); TLE budget", cfg.tle())
	fmt.Fprintln(w, "dataset\t|E|\tMB count\talgorithm\ttime")
	rows := [][]string{{"dataset", "edges", "algorithm", "seconds", "timed_out", "count"}}
	for _, s := range specs {
		if err := cfg.ctx().Err(); err != nil {
			return err
		}
		g := s.Build()
		for _, a := range SerialAlgos() {
			r, err := RunAlgorithm(g, a, cfg, nil)
			if err != nil {
				return err
			}
			fmt.Fprintf(w, "%s\t%d\t%d\t%s\t%s\n", s.Acronym, g.NumEdges(), r.Count, a, fmtRun(r))
			rows = append(rows, []string{
				s.Acronym, strconv.FormatInt(g.NumEdges(), 10), a,
				fmt.Sprintf("%.3f", r.Elapsed.Seconds()), strconv.FormatBool(r.TimedOut),
				strconv.FormatInt(r.Count, 10),
			})
		}
	}
	if err := w.Flush(); err != nil {
		return err
	}
	return writeCSV(cfg, "fig13", rows)
}

// Fig14 reproduces Figure 14: ParAdaMBE vs ParMBE runtime as the thread
// count doubles from 1 to the configured width, on the GitHub and CebWiki
// analogues.
func Fig14(cfg Config) error {
	specs, err := cfg.selectSpecs(quickCut(cfg, []string{"GH", "ceb"}, 1))
	if err != nil {
		return err
	}
	var threadsSweep []int
	for t := 1; t <= cfg.threads(); t *= 2 {
		threadsSweep = append(threadsSweep, t)
	}
	if cfg.Quick && len(threadsSweep) > 3 {
		threadsSweep = threadsSweep[:3]
	}
	w := tabwriter.NewWriter(cfg.out(), 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "Fig. 14 — impact of number of threads")
	fmt.Fprintln(w, "dataset\tthreads\tParAdaMBE\tParMBE")
	rows := [][]string{{"dataset", "threads", "paradambe_seconds", "parmbe_seconds"}}
	for _, s := range specs {
		if err := cfg.ctx().Err(); err != nil {
			return err
		}
		g := s.Build()
		for _, th := range threadsSweep {
			sub := cfg
			sub.Threads = th
			ra, err := RunAlgorithm(g, AlgoParAdaMBE, sub, nil)
			if err != nil {
				return err
			}
			rb, err := RunAlgorithm(g, AlgoParMBE, sub, nil)
			if err != nil {
				return err
			}
			fmt.Fprintf(w, "%s\t%d\t%s\t%s\n", s.Acronym, th, fmtRun(ra), fmtRun(rb))
			rows = append(rows, []string{
				s.Acronym, strconv.Itoa(th),
				fmt.Sprintf("%.3f", ra.Elapsed.Seconds()),
				fmt.Sprintf("%.3f", rb.Elapsed.Seconds()),
			})
		}
	}
	if err := w.Flush(); err != nil {
		return err
	}
	return writeCSV(cfg, "fig14", rows)
}

func specNames(specs []datasets.Spec) []string {
	out := make([]string, len(specs))
	for i, s := range specs {
		out[i] = s.Acronym
	}
	return out
}
