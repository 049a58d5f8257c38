package ooc

import (
	"context"
	"encoding/json"
	"errors"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/clique"
	"repro/internal/core"
	"repro/internal/enumcfg"
	"repro/internal/graph"
)

func plantedGraph(seed int64) *graph.Graph {
	rng := rand.New(rand.NewSource(seed))
	return graph.PlantedGraph(rng, 100, []graph.PlantedCliqueSpec{
		{Size: 11}, {Size: 7, Overlap: 3}, {Size: 6},
	}, 350)
}

// killRun starts a checkpointed run and cancels it after `after`
// emissions, returning the emitted prefix.
func killRun(t *testing.T, g graph.Interface, dir string, after int, cfg enumcfg.Config) []string {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var killed []string
	cfg.Ctx = ctx
	cfg.Dir = dir
	cfg.Checkpoint = true
	_, err := Enumerate(g, cfg, core.Hooks{Reporter: clique.ReporterFunc(func(c clique.Clique) {
		killed = append(killed, c.Key())
		if len(killed) == after {
			cancel()
		}
	})})
	if err == nil {
		t.Fatal("checkpointed run completed despite cancellation; raise the kill point")
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("kill error %v does not wrap context.Canceled", err)
	}
	return killed
}

// killAtBoundary ends a checkpointed run at the boundary into level k,
// once its checkpoint is committed and before the consumed level is
// deleted: the hook's error stops the run there, which leaves the
// consumed level beside a manifest naming level k, as a kill of the
// process at that instant would.
func killAtBoundary(t *testing.T, g graph.Interface, dir string, k int, cfg enumcfg.Config) []string {
	t.Helper()
	errKill := errors.New("killed between the commit and the deletions")
	boundaryHook = func(at int) error {
		if at == k {
			return errKill
		}
		return nil
	}
	defer func() { boundaryHook = nil }()
	var killed []string
	cfg.Dir, cfg.Checkpoint = dir, true
	_, err := Enumerate(g, cfg, core.Hooks{Reporter: clique.ReporterFunc(func(c clique.Clique) {
		killed = append(killed, c.Key())
	})})
	if !errors.Is(err, errKill) {
		t.Fatalf("kill at boundary %d: err = %v, want the hook's", k, err)
	}
	consumed, _ := filepath.Glob(filepath.Join(dir, ShardFileName(k-1, "*")))
	if m, err := LoadManifest(dir); err != nil || m.K != k || len(consumed) == 0 {
		t.Fatalf("kill at boundary %d: manifest %+v (%v) beside %d files of level %d, want level %d's beside the consumed level",
			k, m, err, len(consumed), k-1, k)
	}
	return killed
}

// TestKillResumeParity kills a checkpointed run at several points — one
// of them at a boundary between its commit and its deletions — and checks each resume delivers exactly the uninterrupted
// stream's suffix with merged cumulative stats equal to the
// uninterrupted run's.
func TestKillResumeParity(t *testing.T) {
	g := plantedGraph(201)
	for _, c := range []struct {
		name string
		cfg  enumcfg.Config
	}{
		{"serial", enumcfg.Config{}},
		{"parallel", enumcfg.Config{Workers: 4, ShardBytes: 512}},
	} {
		t.Run(c.name, func(t *testing.T) {
			ref := c.cfg
			boundaryK, levels := 0, 0 // a level after the first that emits
			want, full := orderedKeys(t, g, ref, core.Hooks{OnLevel: func(st core.LevelStats) {
				if levels++; boundaryK == 0 && st.Maximal > 0 && levels > 1 {
					boundaryK = st.FromK
				}
			}})
			if len(want) < 20 || boundaryK == 0 {
				t.Fatalf("only %d cliques in the reference run, no level after the first emits: %v", len(want), boundaryK == 0)
			}
			const atBoundary = -1
			for _, kill := range []int{1, len(want) / 3, len(want) - 2, atBoundary} {
				dir := t.TempDir()
				var killed []string
				if kill == atBoundary {
					killed = killAtBoundary(t, g, dir, boundaryK, c.cfg)
				} else {
					killed = killRun(t, g, dir, kill, c.cfg)
				}
				for i, k := range killed {
					if k != want[i] {
						t.Fatalf("kill@%d: killed stream diverges at %d", kill, i)
					}
				}
				if _, err := os.Stat(filepath.Join(dir, manifestName)); err != nil {
					t.Fatalf("kill@%d: no manifest after the kill: %v", kill, err)
				}
				var resumed []string
				rcfg := c.cfg
				rcfg.Dir = dir
				st, err := Resume(g, rcfg, core.Hooks{Reporter: clique.ReporterFunc(func(cl clique.Clique) {
					resumed = append(resumed, cl.Key())
				})})
				if err != nil {
					t.Fatalf("kill@%d: resume: %v", kill, err)
				}
				if !st.Resumed {
					t.Errorf("kill@%d: Stats.Resumed unset", kill)
				}
				off := len(want) - len(resumed)
				if off < 0 || off > len(killed) {
					t.Fatalf("kill@%d: resume delivered %d cliques (killed %d, full %d): not a continuation",
						kill, len(resumed), len(killed), len(want))
				}
				for i, k := range resumed {
					if k != want[off+i] {
						t.Fatalf("kill@%d: resumed stream diverges at %d", kill, i)
					}
				}
				if st.Maximal != full.Maximal || st.BytesWritten != full.BytesWritten ||
					st.RawBytesWritten != full.RawBytesWritten || st.BytesRead != full.BytesRead ||
					st.Levels != full.Levels || st.PeakLevelFile != full.PeakLevelFile {
					t.Errorf("kill@%d: merged stats diverge from the uninterrupted run:\nresumed %+v\nfull    %+v",
						kill, st, full)
				}
			}
		})
	}
}

// TestResumeWithDifferentWorkerCount: parallelism is a per-run choice,
// not part of the checkpoint; the stream must not depend on it.
func TestResumeWithDifferentWorkerCount(t *testing.T) {
	g := plantedGraph(202)
	want, _ := orderedKeys(t, g, enumcfg.Config{}, core.Hooks{})
	dir := t.TempDir()
	killRun(t, g, dir, len(want)/2, enumcfg.Config{Workers: 1})
	var resumed []string
	st, err := Resume(g, enumcfg.Config{
		Dir:        dir,
		Workers:    4,
		ShardBytes: 256,
	}, core.Hooks{Reporter: clique.ReporterFunc(func(c clique.Clique) { resumed = append(resumed, c.Key()) })})
	if err != nil {
		t.Fatal(err)
	}
	if st.Maximal == 0 || len(resumed) == 0 {
		t.Fatal("resumed run found nothing")
	}
	off := len(want) - len(resumed)
	for i, k := range resumed {
		if k != want[off+i] {
			t.Fatalf("resumed stream diverges at %d", i)
		}
	}
}

// TestCheckpointLifecycle: a completed checkpointed run retires its
// manifest and level files; a fresh run refuses a directory that still
// holds a live checkpoint.
func TestCheckpointLifecycle(t *testing.T) {
	g := plantedGraph(203)
	dir := t.TempDir()
	if _, err := Enumerate(g, enumcfg.Config{Dir: dir, Checkpoint: true}, core.Hooks{}); err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		t.Errorf("leftover entry after a completed checkpointed run: %s", e.Name())
	}
	// A live checkpoint blocks a fresh run in the same directory.
	killRun(t, g, dir, 1, enumcfg.Config{})
	if _, err := Enumerate(g, enumcfg.Config{Dir: dir, Checkpoint: true}, core.Hooks{}); err == nil ||
		!strings.Contains(err.Error(), "already holds a checkpoint") {
		t.Fatalf("fresh run over a live checkpoint: err = %v", err)
	}
	// The kill left exactly the manifest plus the shards it lists.
	m, err := LoadManifest(dir)
	if err != nil {
		t.Fatal(err)
	}
	listed := map[string]bool{manifestName: true}
	for _, s := range m.Shards {
		listed[s.Path] = true
	}
	entries, err = os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if !listed[e.Name()] {
			t.Errorf("unlisted file left behind by the killed run: %s", e.Name())
		}
	}
}

// TestResumeRejectsDifferentGraph: the fingerprint guard.
func TestResumeRejectsDifferentGraph(t *testing.T) {
	g := plantedGraph(204)
	dir := t.TempDir()
	killRun(t, g, dir, 2, enumcfg.Config{})
	other := plantedGraph(205)
	if _, err := Resume(other, enumcfg.Config{Dir: dir}, core.Hooks{}); err == nil ||
		!strings.Contains(err.Error(), "different graph") {
		t.Fatalf("resume against a different graph: err = %v", err)
	}
	// Same n and m but one edge moved: the hash must catch it.
	mutated := graph.New(g.N())
	edges := graph.Edges(g)
	for i, e := range edges {
		if i == 0 {
			continue
		}
		mutated.AddEdge(e.U, e.V)
	}
	u := edges[0].U
	for v := 0; v < mutated.N(); v++ {
		if v != u && !mutated.HasEdge(u, v) && !(u == edges[0].U && v == edges[0].V) {
			mutated.AddEdge(u, v)
			break
		}
	}
	if mutated.M() != g.M() {
		t.Fatalf("mutation changed the edge count: %d vs %d", mutated.M(), g.M())
	}
	if _, err := Resume(mutated, enumcfg.Config{Dir: dir}, core.Hooks{}); err == nil ||
		!strings.Contains(err.Error(), "different graph") {
		t.Fatalf("resume against a mutated graph: err = %v", err)
	}
}

// TestResumeRejectsCorruptCheckpoints: every corruption class errors
// cleanly — no panics, no silent misbehavior.
func TestResumeRejectsCorruptCheckpoints(t *testing.T) {
	g := plantedGraph(206)
	freshKill := func(t *testing.T) string {
		dir := t.TempDir()
		killRun(t, g, dir, 3, enumcfg.Config{})
		return dir
	}
	t.Run("missing manifest", func(t *testing.T) {
		if _, err := Resume(g, enumcfg.Config{Dir: t.TempDir()}, core.Hooks{}); err == nil ||
			!strings.Contains(err.Error(), "no resumable checkpoint") {
			t.Fatalf("err = %v", err)
		}
	})
	t.Run("garbage manifest", func(t *testing.T) {
		dir := freshKill(t)
		if err := os.WriteFile(filepath.Join(dir, manifestName), []byte("{not json"), 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := Resume(g, enumcfg.Config{Dir: dir}, core.Hooks{}); err == nil ||
			!strings.Contains(err.Error(), "corrupt manifest") {
			t.Fatalf("err = %v", err)
		}
	})
	t.Run("wrong version", func(t *testing.T) {
		dir := freshKill(t)
		m, err := LoadManifest(dir)
		if err != nil {
			t.Fatal(err)
		}
		m.Version = 99
		data, _ := json.Marshal(m)
		os.WriteFile(filepath.Join(dir, manifestName), data, 0o644)
		if _, err := Resume(g, enumcfg.Config{Dir: dir}, core.Hooks{}); err == nil ||
			!strings.Contains(err.Error(), "version") {
			t.Fatalf("err = %v", err)
		}
	})
	t.Run("traversal shard path", func(t *testing.T) {
		dir := freshKill(t)
		m, err := LoadManifest(dir)
		if err != nil {
			t.Fatal(err)
		}
		m.Shards[0].Path = "../escape" + shardSuffix
		data, _ := json.Marshal(m)
		os.WriteFile(filepath.Join(dir, manifestName), data, 0o644)
		if _, err := Resume(g, enumcfg.Config{Dir: dir}, core.Hooks{}); err == nil ||
			!strings.Contains(err.Error(), "suspicious shard path") {
			t.Fatalf("err = %v", err)
		}
	})
	// A shard listed twice would be joined twice: its cliques delivered
	// twice, a different stream, before anything noticed.
	t.Run("duplicate shard", func(t *testing.T) {
		dir := freshKill(t)
		m, err := LoadManifest(dir)
		if err != nil {
			t.Fatal(err)
		}
		m.Shards = append(m.Shards, m.Shards[0])
		data, _ := json.Marshal(m)
		os.WriteFile(filepath.Join(dir, manifestName), data, 0o644)
		delivered := 0
		rep := clique.ReporterFunc(func(clique.Clique) { delivered++ })
		if _, err := Resume(g, enumcfg.Config{Dir: dir}, core.Hooks{Reporter: rep}); err == nil ||
			!strings.Contains(err.Error(), "listed twice") || delivered != 0 {
			t.Fatalf("err = %v after %d cliques delivered", err, delivered)
		}
	})
	t.Run("missing shard", func(t *testing.T) {
		dir := freshKill(t)
		m, err := LoadManifest(dir)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.Remove(filepath.Join(dir, m.Shards[0].Path)); err != nil {
			t.Fatal(err)
		}
		if _, err := Resume(g, enumcfg.Config{Dir: dir}, core.Hooks{}); err == nil ||
			!strings.Contains(err.Error(), "missing") {
			t.Fatalf("err = %v", err)
		}
	})
	t.Run("truncated shard", func(t *testing.T) {
		dir := freshKill(t)
		m, err := LoadManifest(dir)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, m.Shards[0].Path)
		if err := os.Truncate(path, m.Shards[0].Bytes/2); err != nil {
			t.Fatal(err)
		}
		if _, err := Resume(g, enumcfg.Config{Dir: dir}, core.Hooks{}); err == nil ||
			!strings.Contains(err.Error(), "truncated") {
			t.Fatalf("err = %v", err)
		}
	})
	t.Run("corrupted shard body", func(t *testing.T) {
		dir := freshKill(t)
		m, err := LoadManifest(dir)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, m.Shards[0].Path)
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		// Scramble the record payload, size unchanged: the pre-flight
		// stat passes, the record decoder must catch it mid-join.
		for i := shardHeaderLen; i < len(data); i++ {
			data[i] = byte(255 - data[i])
		}
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := Resume(g, enumcfg.Config{Dir: dir}, core.Hooks{}); err == nil ||
			!strings.Contains(err.Error(), "corrupt level file") {
			t.Fatalf("err = %v", err)
		}
	})
}

// TestResumeDiscardsStalePartialLevel: the interrupted level's partial
// output files are removed on resume, not joined twice.
func TestResumeDiscardsStalePartialLevel(t *testing.T) {
	g := plantedGraph(207)
	dir := t.TempDir()
	killRun(t, g, dir, 2, enumcfg.Config{})
	// Plant a stale shard file mimicking a crash that never cleaned up.
	stale := filepath.Join(dir, "l099-999999"+shardSuffix)
	if err := os.WriteFile(stale, []byte("junk"), 0o644); err != nil {
		t.Fatal(err)
	}
	want, _ := orderedKeys(t, g, enumcfg.Config{}, core.Hooks{})
	var resumed []string
	if _, err := Resume(g, enumcfg.Config{Dir: dir}, core.Hooks{Reporter: clique.ReporterFunc(func(c clique.Clique) { resumed = append(resumed, c.Key()) })}); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(stale); !os.IsNotExist(err) {
		t.Error("stale partial shard survived the resume")
	}
	off := len(want) - len(resumed)
	for i, k := range resumed {
		if k != want[off+i] {
			t.Fatalf("resumed stream diverges at %d", i)
		}
	}
}
