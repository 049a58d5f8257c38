package ooc

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"repro/internal/graph"
)

// manifestName is the checkpoint descriptor inside a run directory.  It
// is rewritten atomically (tmp + rename) at every level boundary, so a
// run killed at any instant leaves either the previous or the next
// consistent checkpoint — never a torn one.  See DESIGN.md §5.4 for the
// commit protocol (outputs durable before the manifest names them,
// inputs deleted only after, then the sweep).
const manifestName = "ooc-manifest.json"

// ManifestVersion guards the on-disk format (shard format + manifest
// schema together), so LoadManifest refuses a checkpoint of another
// version before a resume sweeps or joins anything.  Version 2 added the
// Owner stamp: a manifest records which process wrote it, and
// WriteManifest rejects a commit whose owner does not match the manifest
// already on disk — the guard that keeps a stale distributed worker's
// late commit from silently clobbering the coordinator's checkpoint.
// Version 3 has shards of CRC-32C block frames and no encoding flag.
const ManifestVersion = 3

// Owner identifies the process that owns a checkpoint directory: the
// host and pid that wrote the manifest, plus a role tag ("ooc" for the
// single-machine engine, "coordinator" for the distributed one, a
// worker id for anything a remote worker might ever write).  The ooc
// manifest write path used to assume same-process resume; with a
// coordinator and N worker processes sharing one run directory, the
// manifest itself must say whose commit it is.
type Owner struct {
	Host     string `json:"host"`
	PID      int    `json:"pid"`
	WorkerID string `json:"worker_id"`
}

// SelfOwner returns the calling process's Owner stamp with the given
// role tag.
func SelfOwner(workerID string) Owner {
	host, err := os.Hostname()
	if err != nil {
		host = "unknown"
	}
	return Owner{Host: host, PID: os.Getpid(), WorkerID: workerID}
}

// ReleaseRecord documents one re-lease: a shard whose lease expired (or
// whose worker died) and was handed to another worker.  The distributed
// coordinator appends these to its manifest so an operator — and the
// kill-a-worker smoke test — can see exactly which shards were
// re-executed.
type ReleaseRecord struct {
	Level   int    `json:"level"`
	Shard   string `json:"shard"`
	Worker  int    `json:"worker"`
	Attempt int    `json:"attempt"`
	Reason  string `json:"reason"`
}

// Manifest is the per-run checkpoint written at each level boundary: the
// next level to join, its shard files, the cumulative statistics through
// that boundary, and the identity of the graph the level files were
// derived from.  The distributed coordinator writes the same schema
// (plus its release history), so ooc.Resume can finish an interrupted
// distributed run on one machine.
type Manifest struct {
	Version int         `json:"version"`
	Owner   Owner       `json:"owner"`
	K       int         `json:"k"` // clique size of Shards' records (next join input)
	MaxK    int         `json:"max_k,omitempty"`
	Shards  []ShardMeta `json:"shards"`
	Stats   Stats       `json:"stats"`
	GraphN  int         `json:"graph_n"`
	GraphM  int         `json:"graph_m"`
	// GraphHash fingerprints the canonical edge stream (FNV-1a), so a
	// checkpoint cannot silently resume against a different graph.
	GraphHash string `json:"graph_hash"`
	// Releases is the distributed coordinator's re-lease history
	// (empty for single-machine runs).
	Releases []ReleaseRecord `json:"releases,omitempty"`
}

// Fingerprint hashes the graph's canonical edge stream; Resume refuses a
// checkpoint whose fingerprint does not match the graph handed to it.
// The implementation is the promoted graph.Fingerprint — the one
// identity the manifest, the service registry, and the result cache all
// key on.
func Fingerprint(g graph.Interface) string { return graph.Fingerprint(g) }

// writeManifestRaw atomically replaces the run directory's manifest.
func writeManifestRaw(dir string, m *Manifest) error {
	data, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return fmt.Errorf("ooc: encode manifest: %w", err)
	}
	tmp := filepath.Join(dir, manifestName+".tmp")
	if err := os.WriteFile(tmp, data, 0o644); err != nil {
		return fmt.Errorf("ooc: write manifest: %w", err)
	}
	if err := os.Rename(tmp, filepath.Join(dir, manifestName)); err != nil {
		return fmt.Errorf("ooc: commit manifest: %w", err)
	}
	return nil
}

// WriteManifest commits a checkpoint: m.Version is stamped and the
// write replaces the directory's manifest atomically.  Unless takeover
// is set, a manifest already on disk must carry the same Owner — a
// commit from anyone else is rejected, so a stale worker (or a
// superseded coordinator) that wakes up late cannot clobber the live
// owner's checkpoint.  Takeover is for the two legitimate
// ownership-transfer points: the first commit of a fresh run and a
// Resume that has already validated the checkpoint it is adopting.
func WriteManifest(dir string, m *Manifest, takeover bool) error {
	m.Version = ManifestVersion
	if !takeover {
		if existing, err := LoadManifest(dir); err == nil && existing.Owner != (Owner{}) &&
			existing.Owner != m.Owner {
			return fmt.Errorf(
				"ooc: stale manifest commit rejected: %s is owned by %s@%s pid %d, not %s@%s pid %d",
				dir, existing.Owner.WorkerID, existing.Owner.Host, existing.Owner.PID,
				m.Owner.WorkerID, m.Owner.Host, m.Owner.PID)
		}
	}
	return writeManifestRaw(dir, m)
}

// LoadManifest reads and structurally validates a checkpoint manifest.
func LoadManifest(dir string) (*Manifest, error) {
	data, err := os.ReadFile(filepath.Join(dir, manifestName))
	if err != nil {
		return nil, fmt.Errorf("ooc: no resumable checkpoint in %s: %w", dir, err)
	}
	var m Manifest
	if err := json.Unmarshal(data, &m); err != nil {
		return nil, fmt.Errorf("ooc: corrupt manifest in %s: %w", dir, err)
	}
	if m.Version != ManifestVersion {
		return nil, fmt.Errorf("ooc: manifest version %d, this build reads %d", m.Version, ManifestVersion)
	}
	if m.K < 2 {
		return nil, fmt.Errorf("ooc: corrupt manifest: level size %d", m.K)
	}
	seen := make(map[string]bool, len(m.Shards))
	for _, s := range m.Shards {
		if s.Path != filepath.Base(s.Path) || !strings.HasSuffix(s.Path, shardSuffix) {
			return nil, fmt.Errorf("ooc: corrupt manifest: suspicious shard path %q", s.Path)
		}
		// A shard listed twice would be joined twice: a different stream.
		if seen[s.Path] {
			return nil, fmt.Errorf("ooc: corrupt manifest: shard %s listed twice", s.Path)
		}
		seen[s.Path] = true
		if s.Records < 0 || s.Bytes < shardHeaderLen {
			return nil, fmt.Errorf("ooc: corrupt manifest: shard %s has %d records in %d bytes",
				s.Path, s.Records, s.Bytes)
		}
	}
	return &m, nil
}

// HasManifest reports whether dir holds a checkpoint manifest.
func HasManifest(dir string) bool {
	_, err := os.Stat(filepath.Join(dir, manifestName))
	return err == nil
}

// RemoveManifest retires a completed checkpoint.  A missing manifest is
// not an error (the run may never have checkpointed).
func RemoveManifest(dir string) error {
	if err := os.Remove(filepath.Join(dir, manifestName)); err != nil && !os.IsNotExist(err) {
		return fmt.Errorf("ooc: removing completed checkpoint: %w", err)
	}
	return nil
}

// verifyShards stats every shard the manifest names, confirming presence
// and exact size — the cheap pre-flight that catches a truncated or
// tampered checkpoint before any join starts (record-level validation
// happens during the joins themselves).
func verifyShards(dir string, shards []ShardMeta) error {
	for _, s := range shards {
		fi, err := os.Stat(filepath.Join(dir, s.Path))
		if err != nil {
			return fmt.Errorf("ooc: checkpoint shard missing: %w", err)
		}
		if fi.Size() != s.Bytes {
			return fmt.Errorf("ooc: checkpoint shard %s is %d bytes, manifest says %d (truncated?)",
				s.Path, fi.Size(), s.Bytes)
		}
	}
	return nil
}

// RemoveStaleShards deletes shard files in dir that keep does not list —
// the partial outputs of an interrupted level, or the orphaned writes of
// a worker whose lease expired, or a consumed level a kill left behind.
// Only files matching the engine's naming pattern (the .ooc suffix) are
// touched.  It runs where no level is being written: at a boundary, on a
// failed level, and before a resume.
func RemoveStaleShards(dir string, keep []ShardMeta) error {
	listed := make(map[string]bool, len(keep))
	for _, s := range keep {
		listed[s.Path] = true
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return fmt.Errorf("ooc: scan checkpoint dir: %w", err)
	}
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || listed[name] || !strings.HasSuffix(name, shardSuffix) {
			continue
		}
		if err := os.Remove(filepath.Join(dir, name)); err != nil {
			return fmt.Errorf("ooc: remove stale shard: %w", err)
		}
	}
	return nil
}
