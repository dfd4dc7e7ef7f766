// Package engine is the one registry of enumeration engines: the AdaMBE
// family of internal/core, and the paper competitors and BBK of
// internal/baselines. Every layer that picks an engine — the public mbe
// API, the daemon, dist workers, the differential and experiment
// harnesses and the CLIs — resolves it here, so an engine's spellings,
// capabilities and option wiring are written once.
//
// Around the registry this package is also the one place that checks
// capabilities, applies the V ordering and maps R back, opens the spool
// session of a durable run, and feeds an obs.Recorder for an engine
// without probes (see ID.Enumerate and ID.Run).
package engine

import (
	"errors"
	"fmt"
	"runtime"
	"strings"

	"repro/internal/baselines"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/obs"
)

// ID names one registry entry. IDs are dense and in menu order: the
// AdaMBE family in the paper's ablation order, then every other engine
// sorted case-insensitively by name.
type ID int

// The registered engines.
const (
	AdaMBE ID = iota
	ParAdaMBE
	Baseline
	AdaMBELN
	AdaMBEBIT
	BBK
	FMBE
	GMBE
	OOMBEA
	ParMBE
	PMBE
)

// entry is one engine: its canonical CLI/API spelling, its paper
// spelling when that differs, its capabilities, and how to run it.
//
//   - parallel: honours Threads > 1.
//   - rooted: honours Ordering, StartRoot/EndRoot and Sink/Frontier — it
//     emits every maximal biclique exactly once under root min(R) of the
//     ordered V side — hence the spool, daemon jobs and dist.
//   - probes: feeds an obs.Recorder itself.
type entry struct {
	name, paper              string
	parallel, rooted, probes bool
	run                      func(*graph.Bipartite, core.Options) (core.Result, error)
}

var registry = [...]entry{
	AdaMBE:    {name: "AdaMBE", rooted: true, probes: true, run: coreRun(core.Ada)},
	ParAdaMBE: {name: "ParAdaMBE", parallel: true, rooted: true, probes: true, run: coreRun(core.Ada)},
	Baseline:  {name: "Baseline", rooted: true, probes: true, run: coreRun(core.Baseline)},
	AdaMBELN:  {name: "AdaMBE-LN", rooted: true, probes: true, run: coreRun(core.LN)},
	AdaMBEBIT: {name: "AdaMBE-BIT", rooted: true, probes: true, run: coreRun(core.BIT)},
	BBK:       {name: "BBK", rooted: true, run: baselineRun(baselines.BBK)},
	FMBE:      {name: "FMBE", run: baselineRun(baselines.FMBE)},
	GMBE:      {name: "GMBE", paper: "GMBE-sim", parallel: true, run: baselineRun(baselines.GMBE)},
	OOMBEA:    {name: "ooMBEA", run: baselineRun(baselines.OOMBEA)},
	ParMBE:    {name: "ParMBE", parallel: true, run: baselineRun(baselines.ParMBE)},
	PMBE:      {name: "PMBE", run: baselineRun(baselines.PMBE)},
}

func coreRun(v core.Variant) func(*graph.Bipartite, core.Options) (core.Result, error) {
	return func(g *graph.Bipartite, spec core.Options) (core.Result, error) {
		spec.Variant = v
		return core.Enumerate(g, spec)
	}
}

func baselineRun(a baselines.Algorithm) func(*graph.Bipartite, core.Options) (core.Result, error) {
	return func(g *graph.Bipartite, spec core.Options) (core.Result, error) {
		return baselines.Run(g, a, spec)
	}
}

func (id ID) entry() (*entry, error) {
	if id < 0 || int(id) >= len(registry) {
		return nil, fmt.Errorf("engine: unknown algorithm %d", int(id))
	}
	return &registry[id], nil
}

// All lists every engine in menu order.
func All() []ID {
	ids := make([]ID, len(registry))
	for i := range ids {
		ids[i] = ID(i)
	}
	return ids
}

// Names lists the canonical spellings Parse accepts, in menu order.
func Names() []string { return names(func(*entry) bool { return true }) }

// RootedNames lists the canonical spellings of the rooted engines.
func RootedNames() []string { return names(func(e *entry) bool { return e.rooted }) }

func names(keep func(*entry) bool) []string {
	var out []string
	for i := range registry {
		if keep(&registry[i]) {
			out = append(out, registry[i].name)
		}
	}
	return out
}

// Parse maps a canonical or paper spelling, in any case, to its engine.
func Parse(name string) (ID, error) {
	for i, e := range registry {
		if strings.EqualFold(name, e.name) || (e.paper != "" && strings.EqualFold(name, e.paper)) {
			return ID(i), nil
		}
	}
	return 0, fmt.Errorf("engine: unknown algorithm %q (want %s)", name, strings.Join(Names(), "|"))
}

// String returns the engine's paper spelling.
func (id ID) String() string {
	e, err := id.entry()
	switch {
	case err != nil:
		return fmt.Sprintf("Algorithm(%d)", int(id))
	case e.paper != "":
		return e.paper
	}
	return e.name
}

// Parallel reports whether the engine honours Threads > 1.
func (id ID) Parallel() bool { e, err := id.entry(); return err == nil && e.parallel }

// Rooted reports whether the engine honours the root partition contract.
func (id ID) Rooted() bool { e, err := id.entry(); return err == nil && e.rooted }

// Width is the number of workers the engine runs when asked for threads:
// 1 for a serial engine, GOMAXPROCS for a parallel one asked for 0.
func (id ID) Width(threads int) int {
	if !id.Parallel() {
		return 1
	}
	if threads == 0 {
		return runtime.GOMAXPROCS(0)
	}
	return threads
}

// ErrNotRooted is wrapped by the one error every layer returns when a
// non-rooted engine is asked for what only the root partition contract
// provides.
var ErrNotRooted = errors.New("root ranges, the spool, daemon jobs and dist are only supported by the rooted engines")

// CheckRooted returns nil for a rooted engine, else an error wrapping
// ErrNotRooted that names the engine and the rooted ones.
func (id ID) CheckRooted() error {
	e, err := id.entry()
	if err != nil {
		return err
	}
	if !e.rooted {
		return fmt.Errorf("engine: %s: %w (%s)", id, ErrNotRooted, strings.Join(RootedNames(), "|"))
	}
	return nil
}

// Run enumerates g, whose V side is already in processing order, with
// the engine. spec is the engine's run spec: Threads is resolved by
// Width, and a root range or a Sink/Frontier needs a rooted engine. An
// Obs recorder attached to an engine without probes is fed here: Run
// drives its lifecycle and, in a wrapper around OnBiclique that no other
// run pays for, counts each biclique and publishes the count
// (baselines.Run serializes OnBiclique, so a plain count is safe).
func (id ID) Run(g *graph.Bipartite, spec core.Options) (core.Result, error) {
	e, err := id.entry()
	if err != nil {
		return core.Result{}, err
	}
	if spec.StartRoot != 0 || spec.EndRoot != 0 || spec.Sink != nil || spec.Frontier != nil {
		if err := id.CheckRooted(); err != nil {
			return core.Result{}, err
		}
	}
	spec.Threads = id.Width(spec.Threads)
	rec := spec.Obs
	if rec == nil || e.probes {
		return e.run(g, spec)
	}
	rec.RunBegin(obs.RunConfig{Workers: 1, Deadline: spec.Deadline, MemBudgetBytes: spec.MaxMemoryBytes})
	probe := rec.Worker(0)
	probe.SetState(obs.StateBusy)
	inner := spec.OnBiclique
	var c obs.Counters
	spec.OnBiclique = func(L, R []int32) {
		c.Bicliques++
		probe.Publish(&c)
		if inner != nil {
			inner(L, R)
		}
	}
	res, err := e.run(g, spec)
	rec.Finish(res.StopReason.String())
	return res, err
}
