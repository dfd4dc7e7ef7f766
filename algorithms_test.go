package mbe_test

import (
	"errors"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	mbe "repro"
	"repro/internal/difftest"
	"repro/internal/dist"
	"repro/internal/engine"
	"repro/internal/order"
	"repro/internal/server"
)

// TestEngineRegistryDrift pins the contract that every layer picking an
// engine derives from the one registry in internal/engine: the menu is
// the AdaMBE family followed by the remaining engines sorted
// case-insensitively; every entry round-trips through mbe.ParseAlgorithm,
// difftest.ParseEngine (and the .repro config form) and, when rooted,
// dist.Spec.Validate; and every non-rooted engine is refused with the
// registry's single error by each rooted-only entry point.
func TestEngineRegistryDrift(t *testing.T) {
	family := []string{"AdaMBE", "ParAdaMBE", "Baseline", "AdaMBE-LN", "AdaMBE-BIT"}
	if len(mbe.AlgorithmNames) != len(engine.All()) {
		t.Fatalf("AlgorithmNames %v lists %d engines, the registry has %d", mbe.AlgorithmNames, len(mbe.AlgorithmNames), len(engine.All()))
	}
	for i, want := range family {
		if mbe.AlgorithmNames[i] != want {
			t.Fatalf("AlgorithmNames[%d] = %q, want the AdaMBE family prefix %v", i, mbe.AlgorithmNames[i], family)
		}
	}
	tail := mbe.AlgorithmNames[len(family):]
	if !sort.SliceIsSorted(tail, func(i, j int) bool {
		return strings.ToLower(tail[i]) < strings.ToLower(tail[j])
	}) {
		t.Fatalf("non-family algorithm names not sorted case-insensitively: %v", tail)
	}

	g, err := mbe.Dataset("UL")
	if err != nil {
		t.Fatal(err)
	}
	for i, id := range engine.All() {
		name := mbe.AlgorithmNames[i]
		// The public spelling, in any case, and the paper spelling.
		for _, s := range []string{name, strings.ToLower(name), strings.ToUpper(name), id.String()} {
			if a, err := mbe.ParseAlgorithm(s); err != nil || engine.ID(a) != id {
				t.Errorf("mbe.ParseAlgorithm(%q) = %v, %v; want %v", s, a, err, id)
			}
		}
		if got := mbe.Algorithm(id).String(); got != id.String() {
			t.Errorf("mbe.Algorithm(%v).String() = %q", id, got)
		}
		if e, err := difftest.ParseEngine(id.String()); err != nil || e != id {
			t.Errorf("difftest.ParseEngine(%q) = %v, %v; want %v", id.String(), e, err, id)
		}
		cfg := difftest.Config{Engine: id, Order: order.UnilateralCore}
		if back, err := difftest.ParseConfig(cfg.String()); err != nil || back != cfg {
			t.Errorf("difftest config %q does not round-trip: %+v, %v", cfg, back, err)
		}

		spec := dist.Spec{Algorithm: name, Ordering: "asc", NU: g.NU(), NV: g.NV(), Edges: g.NumEdges(), GraphHash: g.Signature()}
		if id.Rooted() {
			if err := spec.Validate(); err != nil {
				t.Errorf("dist.Spec.Validate(%s): %v", name, err)
			}
			continue
		}

		// A non-rooted engine: every rooted-only entry point refuses it
		// with the registry's error, before touching the disk.
		dir := filepath.Join(t.TempDir(), "spool")
		for what, err := range map[string]error{
			"mbe.Enumerate with SpoolDir": func() error {
				_, err := mbe.Enumerate(g, mbe.Options{Algorithm: mbe.Algorithm(id), SpoolDir: dir})
				return err
			}(),
			"mbe.Enumerate with StartRoot": func() error {
				_, err := mbe.Enumerate(g, mbe.Options{Algorithm: mbe.Algorithm(id), StartRoot: 1})
				return err
			}(),
			"mbe.Enumerate with EndRoot": func() error {
				_, err := mbe.Enumerate(g, mbe.Options{Algorithm: mbe.Algorithm(id), EndRoot: 2})
				return err
			}(),
			"JobSpec.Validate":   server.JobSpec{GraphID: "g", Algorithm: name}.Validate(),
			"dist.Spec.Validate": spec.Validate(),
		} {
			if !errors.Is(err, engine.ErrNotRooted) {
				t.Errorf("%s: %s returned %v, want the registry's ErrNotRooted", name, what, err)
			}
		}
		if _, err := os.Stat(dir); !os.IsNotExist(err) {
			t.Errorf("%s: a refused spooled run still created %s (%v)", name, dir, err)
		}
	}

	// The unknown-name error embeds the generated menu, so help text and
	// error text cannot drift apart; the empty name is the default.
	_, err = mbe.ParseAlgorithm("definitely-not-an-algorithm")
	if err == nil || !strings.Contains(err.Error(), strings.Join(mbe.AlgorithmNames, "|")) {
		t.Fatalf("unknown-algorithm error %v does not embed the menu %v", err, mbe.AlgorithmNames)
	}
	if a, err := mbe.ParseAlgorithm(""); err != nil || a != mbe.AdaMBE {
		t.Fatalf("empty name = %v, %v; want AdaMBE", a, err)
	}
}
