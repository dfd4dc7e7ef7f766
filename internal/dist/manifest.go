package dist

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"repro/internal/difftest"
	"repro/internal/spool"
)

// ManifestName is the coordinator's state file inside its directory.
const ManifestName = "dist-manifest.json"

// Range states as persisted in the manifest.
const (
	statePending = "pending"
	stateLeased  = "leased"
	stateDone    = "done"
)

// manifest is the coordinator's durable state: the run spec, every
// range's confirmed progress, and — once every range is done — the
// merged global digest. It is written with the spool's atomic
// temp+fsync+rename, so a reader never observes a torn file and kill -9
// at any instant leaves either the old or the new state.
//
// What is deliberately NOT persisted: lease holders' heartbeat clocks.
// On recovery every leased range reverts to pending and is re-issued
// from its persisted watermark; the attempt counter IS persisted, so the
// re-issue's attempt exceeds any frame a pre-crash zombie could still
// send (see the fencing rule in the package comment).
type manifest struct {
	Version    int              `json:"version"`
	Spec       Spec             `json:"spec"`
	LeaseTTLMS int64            `json:"lease_ttl_ms"`
	Complete   bool             `json:"complete"`
	Global     *difftest.Digest `json:"global,omitempty"`
	Ranges     []rangeJSON      `json:"ranges"`
	WrittenAt  string           `json:"written_at"`
}

// rangeJSON is one range's persisted state. Digest summarizes exactly
// the roots [Start, Watermark) — the two fields are updated together
// under the coordinator lock and persisted in one atomic write, which is
// what makes a crash-recovered resume merge-exact.
type rangeJSON struct {
	ID        int             `json:"id"`
	Start     int32           `json:"start"`
	End       int32           `json:"end"`
	State     string          `json:"state"`
	Attempt   int             `json:"attempt"`
	Watermark int32           `json:"watermark"`
	Worker    string          `json:"worker,omitempty"`
	Digest    difftest.Digest `json:"digest"`
}

// manifestPath resolves the manifest file inside dir.
func manifestPath(dir string) string { return filepath.Join(dir, ManifestName) }

// writeManifest persists m atomically. durable additionally fsyncs the
// directory entry; non-durable writes keep rename atomicity (a crash
// may revert to the previous state, never expose a torn one).
func writeManifest(dir string, m manifest, durable bool) error {
	m.Version = ProtocolVersion
	m.WrittenAt = time.Now().UTC().Format(time.RFC3339)
	return spool.WriteJSON(manifestPath(dir), m, durable)
}

// loadManifest reads the manifest in dir. found is false when no
// manifest exists (a fresh coordinator directory).
func loadManifest(dir string) (manifest, bool, error) {
	blob, err := os.ReadFile(manifestPath(dir))
	if os.IsNotExist(err) {
		return manifest{}, false, nil
	}
	if err != nil {
		return manifest{}, false, err
	}
	var m manifest
	if err := json.Unmarshal(blob, &m); err != nil {
		return manifest{}, false, fmt.Errorf("dist: corrupt manifest %s: %w", manifestPath(dir), err)
	}
	if m.Version != ProtocolVersion {
		return manifest{}, false, fmt.Errorf("dist: manifest %s is protocol v%d, this build speaks v%d", manifestPath(dir), m.Version, ProtocolVersion)
	}
	return m, true, nil
}

// specCompatible checks that a recovered manifest describes the same run
// the coordinator was configured with. Everything that pins the root
// decomposition must match; lease TTL and range count are allowed to
// change only insofar as the persisted ranges are authoritative.
func specCompatible(have, want Spec) error {
	switch {
	case have.GraphHash != want.GraphHash || have.NU != want.NU || have.NV != want.NV || have.Edges != want.Edges:
		return fmt.Errorf("dist: manifest graph mismatch: manifest %dx%d/%d (%s), run %dx%d/%d (%s)",
			have.NU, have.NV, have.Edges, have.GraphHash, want.NU, want.NV, want.Edges, want.GraphHash)
	case have.Algorithm != want.Algorithm:
		return fmt.Errorf("dist: manifest algorithm mismatch: manifest %s, run %s", have.Algorithm, want.Algorithm)
	case have.Ordering != want.Ordering || have.OrderSeed != want.OrderSeed:
		return fmt.Errorf("dist: manifest ordering mismatch: manifest %s/seed=%d, run %s/seed=%d — watermarks are only meaningful under the original root order",
			have.Ordering, have.OrderSeed, want.Ordering, want.OrderSeed)
	}
	return nil
}
