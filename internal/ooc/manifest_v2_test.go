package ooc

import (
	"strings"
	"testing"
)

// TestManifestV2RoundTrip pins the versioned manifest schema: owner
// stamp and re-lease history survive a write/load cycle intact.
func TestManifestV2RoundTrip(t *testing.T) {
	dir := t.TempDir()
	want := &Manifest{
		Owner: Owner{Host: "hostA", PID: 4242, WorkerID: "coordinator"},
		K:     3,
		MaxK:  7,
		Shards: []ShardMeta{
			{Path: "l003-000001.ooc", Records: 10, Runs: 4, Bytes: 64, RawBytes: 120},
		},
		Stats:     Stats{Maximal: 5, BytesWritten: 64, Levels: 1, Shards: 1},
		GraphN:    9,
		GraphM:    12,
		GraphHash: "fnv1a:deadbeef",
		Releases: []ReleaseRecord{
			{Level: 3, Shard: "l003-000001.ooc", Worker: 2, Attempt: 2, Reason: "lease expired"},
		},
	}
	if err := WriteManifest(dir, want, true); err != nil {
		t.Fatalf("WriteManifest: %v", err)
	}
	if !HasManifest(dir) {
		t.Fatal("HasManifest = false after commit")
	}
	got, err := LoadManifest(dir)
	if err != nil {
		t.Fatalf("LoadManifest: %v", err)
	}
	if got.Version != ManifestVersion {
		t.Errorf("Version = %d, want %d (WriteManifest must stamp it)", got.Version, ManifestVersion)
	}
	if got.Owner != want.Owner {
		t.Errorf("Owner = %+v, want %+v", got.Owner, want.Owner)
	}
	if len(got.Releases) != 1 || got.Releases[0] != want.Releases[0] {
		t.Errorf("Releases = %+v, want %+v", got.Releases, want.Releases)
	}
	if got.K != want.K || got.MaxK != want.MaxK || got.GraphHash != want.GraphHash ||
		len(got.Shards) != 1 || got.Shards[0] != want.Shards[0] {
		t.Errorf("round-trip mismatch: got %+v", got)
	}
}

// TestManifestStaleOwnerRejected is the distributed-safety law the
// manifest write path now enforces: once a coordinator owns a run
// directory, a stale worker's (or superseded coordinator's) late commit
// is rejected instead of silently clobbering the live checkpoint.
func TestManifestStaleOwnerRejected(t *testing.T) {
	dir := t.TempDir()
	coord := Owner{Host: "hostA", PID: 100, WorkerID: "coordinator"}
	stale := Owner{Host: "hostA", PID: 217, WorkerID: "worker-3"}

	if err := WriteManifest(dir, &Manifest{Owner: coord, K: 2}, true); err != nil {
		t.Fatalf("initial takeover commit: %v", err)
	}
	// Same owner re-commits freely: the level-boundary steady state.
	if err := WriteManifest(dir, &Manifest{Owner: coord, K: 3}, false); err != nil {
		t.Fatalf("same-owner commit: %v", err)
	}
	// A different process's commit without takeover must be refused...
	err := WriteManifest(dir, &Manifest{Owner: stale, K: 4}, false)
	if err == nil || !strings.Contains(err.Error(), "stale manifest commit rejected") {
		t.Fatalf("stale commit error = %v, want rejection", err)
	}
	// ...and must leave the owner's checkpoint untouched.
	m, err := LoadManifest(dir)
	if err != nil {
		t.Fatalf("LoadManifest after rejected commit: %v", err)
	}
	if m.Owner != coord || m.K != 3 {
		t.Errorf("checkpoint after rejected commit: owner %+v K %d, want %+v K 3", m.Owner, m.K, coord)
	}
	// An explicit takeover (Resume adopting the checkpoint) still works.
	if err := WriteManifest(dir, &Manifest{Owner: stale, K: 4}, true); err != nil {
		t.Fatalf("takeover commit: %v", err)
	}
	if m, err = LoadManifest(dir); err != nil || m.Owner != stale {
		t.Fatalf("after takeover: m=%+v err=%v", m, err)
	}
}
