package server

import (
	"cmp"
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"time"

	mbe "repro"
	"repro/internal/spool"
)

// Store is the daemon's on-disk layout under one root directory:
//
//	root/
//	  graphs/<graph_id>.bin      submitted graphs (binary cache format)
//	  jobs/<job_id>/job.json     atomically-written manifest
//	  jobs/<job_id>/spool/       the job's durable spool + checkpoint
//
// Everything the daemon must survive kill -9 with lives here; the
// in-memory index is a pure cache rebuilt by Scan on restart.
type Store struct {
	root string
}

// OpenStore creates (if needed) and opens the store root.
func OpenStore(root string) (*Store, error) {
	for _, d := range []string{root, filepath.Join(root, "graphs"), filepath.Join(root, "jobs")} {
		if err := os.MkdirAll(d, 0o755); err != nil {
			return nil, err
		}
	}
	return &Store{root: root}, nil
}

func (s *Store) graphPath(id string) string {
	return filepath.Join(s.root, "graphs", id+".bin")
}

// JobDir returns the directory of job id.
func (s *Store) JobDir(id string) string { return filepath.Join(s.root, "jobs", id) }

// SpoolDir returns the job's spool directory.
func (s *Store) SpoolDir(id string) string { return filepath.Join(s.JobDir(id), "spool") }

func (s *Store) manifestPath(id string) string {
	return filepath.Join(s.JobDir(id), "job.json")
}

// SaveGraph persists g in the binary cache format under its signature
// and returns the graph id. Saving the same graph twice is an idempotent
// no-op (the id is content-derived).
func (s *Store) SaveGraph(g *mbe.Graph) (string, error) {
	id := g.Signature()
	path := s.graphPath(id)
	if _, err := os.Stat(path); err == nil {
		return id, nil
	}
	tmp, err := os.CreateTemp(filepath.Dir(path), ".graph-*")
	if err != nil {
		return "", err
	}
	defer os.Remove(tmp.Name())
	if err := g.WriteBinary(tmp); err != nil {
		tmp.Close()
		return "", err
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return "", err
	}
	if err := tmp.Close(); err != nil {
		return "", err
	}
	return id, os.Rename(tmp.Name(), path)
}

// LoadGraph reads a stored graph back.
func (s *Store) LoadGraph(id string) (*mbe.Graph, error) {
	f, err := os.Open(s.graphPath(id))
	if err != nil {
		if os.IsNotExist(err) {
			return nil, fmt.Errorf("server: unknown graph %q", id)
		}
		return nil, err
	}
	defer f.Close()
	return mbe.ReadBinary(f)
}

// HasGraph reports whether graph id is stored.
func (s *Store) HasGraph(id string) bool {
	_, err := os.Stat(s.graphPath(id))
	return err == nil
}

// newID mints a random id: prefix and 16 hex digits. Job ids use "j",
// trace ids "t".
func newID(prefix string) (string, error) {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		return "", err
	}
	return prefix + hex.EncodeToString(b[:]), nil
}

// CreateJob materializes a fresh job directory and its initial queued
// manifest, stamped with the submit request's trace id. The manifest
// write is the commit point: a crash before it leaves nothing recovery
// would pick up.
func (s *Store) CreateJob(spec JobSpec, traceID string) (Manifest, error) {
	id, err := newID("j")
	if err != nil {
		return Manifest{}, err
	}
	if err := os.MkdirAll(s.JobDir(id), 0o755); err != nil {
		return Manifest{}, err
	}
	now := time.Now().UTC().Format(time.RFC3339)
	m := Manifest{
		ID: id, Spec: spec, State: JobQueued, CacheKey: spec.CacheKey(), TraceID: traceID,
		CreatedAt: now, UpdatedAt: now,
	}
	return m, s.WriteManifest(m)
}

// WriteManifest persists m atomically: temp file + fsync + rename, the
// same protocol as checkpoint.json, so a crash at any instant leaves
// either the previous manifest or this one — never a torn file.
func (s *Store) WriteManifest(m Manifest) error {
	m.UpdatedAt = time.Now().UTC().Format(time.RFC3339)
	return spool.WriteJSON(s.manifestPath(m.ID), m, true)
}

// ReadManifest loads one job's manifest.
func (s *Store) ReadManifest(id string) (Manifest, error) {
	blob, err := os.ReadFile(s.manifestPath(id))
	if err != nil {
		return Manifest{}, err
	}
	var m Manifest
	if err := json.Unmarshal(blob, &m); err != nil {
		return Manifest{}, fmt.Errorf("server: manifest %s: %w", id, err)
	}
	return m, nil
}

// Scan loads every job manifest in the store, oldest first (by
// CreatedAt, then id, so recovery re-enqueues in submission order). A
// job directory without a readable manifest is skipped via onBad — with
// atomic manifest writes that means a crash between MkdirAll and the
// first WriteManifest, i.e. a job that was never committed.
func (s *Store) Scan(onBad func(id string, err error)) ([]Manifest, error) {
	entries, err := os.ReadDir(filepath.Join(s.root, "jobs"))
	if err != nil {
		return nil, err
	}
	var out []Manifest
	for _, e := range entries {
		if !e.IsDir() {
			continue
		}
		m, err := s.ReadManifest(e.Name())
		if err != nil {
			if onBad != nil {
				onBad(e.Name(), err)
			}
			continue
		}
		out = append(out, m)
	}
	slices.SortFunc(out, byCreation)
	return out, nil
}

// byCreation orders manifests oldest first: by CreatedAt, then by id.
func byCreation(a, b Manifest) int {
	return cmp.Or(cmp.Compare(a.CreatedAt, b.CreatedAt), cmp.Compare(a.ID, b.ID))
}
