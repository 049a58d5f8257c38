package ooc

import (
	"context"
	"fmt"
	"maps"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/clique"
	"repro/internal/core"
	"repro/internal/enumcfg"
	"repro/internal/graph"
	"repro/internal/membudget"
	"repro/internal/testgraph"
)

// interceptRunner is the pool with a look at every level as it starts,
// when start is set, and at every delivery before the level loop takes
// it, so before the next level can read the shard's output, when on is.
type interceptRunner struct {
	*pool
	start func(lv *Level)
	on    func(lv *Level, shard int, res ShardResult)
}

func (r interceptRunner) RunLevel(ctx context.Context, lv *Level, deliver func(int, ShardResult)) error {
	if r.start != nil {
		r.start(lv)
	}
	return r.pool.RunLevel(ctx, lv, func(i int, res ShardResult) {
		if r.on != nil {
			r.on(lv, i, res)
		}
		deliver(i, res)
	})
}

// runIntercepted is a fresh run in cfg.Dir itself on an intercepted pool.
func runIntercepted(t *testing.T, g graph.Interface, cfg enumcfg.Config, h core.Hooks,
	start func(*Level), on func(*Level, int, ShardResult)) (Stats, error) {
	t.Helper()
	if err := cfg.Normalize(); err != nil {
		t.Fatal(err)
	}
	p := newPool(g, cfg, h.Gov)
	defer p.close()
	return NewLoop(g, cfg, h, "test").RunSeed(interceptRunner{p, start, on})
}

// untimed is a level record without its wall-clock fields, which differ
// from run to run.
func untimed(st core.LevelStats) core.LevelStats {
	st.Elapsed, st.Wait = 0, 0
	return st
}

// TestCorruptNextLevelFailsAsItsOwn: a shard of level k+1 damaged right
// after level k delivered it fails level k+1, not k: level k completes with
// its whole record and commits, the checkpoint names level k+1, the error
// names step k+1->k+2, and the ledger returns to its entry value.
func TestCorruptNextLevelFailsAsItsOwn(t *testing.T) {
	g := plantedGraph(215)
	cfg := enumcfg.Config{ShardBytes: 512}
	var want []core.LevelStats
	orderedKeys(t, g, cfg, core.Hooks{OnLevel: func(st core.LevelStats) { want = append(want, st) }})
	if len(want) < 4 {
		t.Fatalf("%d levels on disk; the test needs four", len(want))
	}
	k := want[1].FromK
	const entry = 777
	gov := membudget.New(0)
	gov.Charge(entry)
	defer gov.Release(entry)
	check := testgraph.NoLeaks(t, gov)
	var got []core.LevelStats
	cfg.Dir, cfg.Checkpoint = t.TempDir(), true
	flipped := ""
	_, err := runIntercepted(t, g, cfg, core.Hooks{Gov: gov, OnLevel: func(st core.LevelStats) { got = append(got, st) }}, nil,
		func(lv *Level, _ int, res ShardResult) {
			if lv.K != k || flipped != "" || len(res.Out) == 0 {
				return
			}
			flipped = filepath.Join(cfg.Dir, res.Out[0].Path)
			data, err := os.ReadFile(flipped)
			if err != nil {
				t.Fatal(err)
			}
			data[len(data)-1] ^= 0xff // in the last frame's words: its CRC fails
			if err := os.WriteFile(flipped, data, 0o644); err != nil {
				t.Fatal(err)
			}
		})
	if flipped == "" {
		t.Fatalf("level %d delivered no output to damage", k)
	}
	step := fmt.Sprintf("level %d->%d", k+1, k+2)
	if err == nil || !strings.Contains(err.Error(), step) || !strings.Contains(err.Error(), "corrupt") {
		t.Fatalf("err = %v, want a corrupt shard of %s", err, step)
	}
	if len(got) != 3 || !reflect.DeepEqual(untimed(got[1]), untimed(want[1])) {
		t.Fatalf("records %+v, want level %d's as the reference %+v, then level %d's", got, k, want[1], k+1)
	}
	m, merr := LoadManifest(cfg.Dir)
	if merr != nil || m.K != k+1 {
		t.Fatalf("the checkpoint names %+v (%v), want level %d", m, merr, k+1)
	}
	check()
}

// TestSweepRemovesUnlistedShards: a sweep removes every shard file of
// the directory the list does not name, of any level, and nothing else.
func TestSweepRemovesUnlistedShards(t *testing.T) {
	dir := t.TempDir()
	names := []string{
		ShardFileName(3, "000001"), ShardFileName(4, "000002"), ShardFileName(4, "000003"),
		ShardFileName(5, "000004"), ShardFileName(5, "000005"), "notes.txt",
	}
	for _, name := range names {
		if err := os.WriteFile(filepath.Join(dir, name), []byte("x"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if err := RemoveStaleShards(dir, []ShardMeta{{Path: names[2]}}); err != nil {
		t.Fatal(err)
	}
	if got := dirEntries(t, dir); len(got) != 2 || !got[names[2]] || !got["notes.txt"] {
		t.Errorf("the sweep left %v", got)
	}
}

// dirEntries is the set of names in dir.
func dirEntries(t *testing.T, dir string) map[string]bool {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	m := map[string]bool{}
	for _, e := range entries {
		m[e.Name()] = true
	}
	return m
}

// TestBoundaryRetiresBeforeTheNextLevel: a boundary is done before the
// next level starts — the consumed level is deleted and the directory
// swept — so as every level starts, the run directory holds the shards
// it is handed and, in a checkpointed run, the manifest, and nothing
// else.
func TestBoundaryRetiresBeforeTheNextLevel(t *testing.T) {
	g := plantedGraph(217)
	for _, ckpt := range []bool{false, true} {
		for _, workers := range []int{1, 2} {
			t.Run(fmt.Sprintf("checkpoint=%v/workers=%d", ckpt, workers), func(t *testing.T) {
				cfg := enumcfg.Config{Dir: t.TempDir(), Checkpoint: ckpt, Workers: workers, ShardBytes: 512}
				levels := 0
				_, err := runIntercepted(t, g, cfg, core.Hooks{}, func(lv *Level) {
					levels++
					want := map[string]bool{}
					for _, s := range lv.Shards {
						want[s.Path] = true
					}
					if ckpt {
						want[manifestName] = true
					}
					if got := dirEntries(t, cfg.Dir); !maps.Equal(got, want) {
						t.Errorf("level %d->%d starts beside %v, want only %v", lv.K, lv.K+1, got, want)
					}
				}, nil)
				if err != nil {
					t.Fatal(err)
				}
				if levels < 3 {
					t.Fatalf("%d levels on disk; the test needs three", levels)
				}
			})
		}
	}
}

// TestFailedCommitDeletesNothing: a boundary whose checkpoint cannot be
// committed — the manifest cannot be written, or another owner holds the
// directory now — stops the run before anything is deleted.  A failed
// write leaves the checkpoint of the level before whole, and resuming it
// delivers the rest of the uninterrupted stream; another owner's files,
// of any level, and its manifest stay as they are.
func TestFailedCommitDeletesNothing(t *testing.T) {
	g := plantedGraph(216)
	cfg := enumcfg.Config{ShardBytes: 512}
	want, full := orderedKeys(t, g, cfg, core.Hooks{})
	other := Owner{Host: "elsewhere", PID: 1, WorkerID: "ooc"}
	for _, foreign := range []bool{false, true} {
		t.Run(fmt.Sprintf("foreign=%v", foreign), func(t *testing.T) {
			cfg := cfg
			cfg.Dir, cfg.Checkpoint = t.TempDir(), true
			tmp := filepath.Join(cfg.Dir, manifestName+".tmp")
			var planted []string
			k, levels := 0, 0
			_, err := Enumerate(g, cfg, core.Hooks{OnLevel: func(st core.LevelStats) {
				if levels++; levels != 2 {
					return
				}
				// Level k's record is taken; the checkpoint naming k+1 is next.
				k = st.FromK
				if !foreign {
					if err := os.Mkdir(tmp, 0o755); err != nil { // the manifest's write fails
						t.Fatal(err)
					}
					return
				}
				m, err := LoadManifest(cfg.Dir)
				if err != nil {
					t.Fatal(err)
				}
				m.Owner = other
				if err := WriteManifest(cfg.Dir, m, true); err != nil {
					t.Fatal(err)
				}
				for lk := k - 1; lk <= k+2; lk++ {
					name := ShardFileName(lk, "other")
					if err := os.WriteFile(filepath.Join(cfg.Dir, name), []byte("x"), 0o644); err != nil {
						t.Fatal(err)
					}
					planted = append(planted, name)
				}
			}})
			if err == nil || k == 0 {
				t.Fatalf("err = %v after %d levels: the run went past a failed commit", err, levels)
			}
			m, merr := LoadManifest(cfg.Dir)
			if merr != nil || m.K != k {
				t.Fatalf("the checkpoint names %+v (%v), want level %d", m, merr, k)
			}
			if foreign {
				if !strings.Contains(err.Error(), "stale manifest commit rejected") || m.Owner != other {
					t.Errorf("err = %v, manifest owner %+v: the other owner's commit did not stand", err, m.Owner)
				}
				for _, name := range planted {
					if _, err := os.Stat(filepath.Join(cfg.Dir, name)); err != nil {
						t.Errorf("the other owner's %s: %v", name, err)
					}
				}
				return
			}
			if err := verifyShards(cfg.Dir, m.Shards); err != nil {
				t.Fatalf("the checkpoint of level %d is not whole: %v", k, err)
			}
			if err := os.Remove(tmp); err != nil {
				t.Fatal(err)
			}
			var resumed []string
			st, err := Resume(g, cfg, core.Hooks{Reporter: clique.ReporterFunc(func(c clique.Clique) {
				resumed = append(resumed, c.Key())
			})})
			if err != nil {
				t.Fatalf("resume: %v", err)
			}
			off := len(want) - len(resumed)
			if off < 0 || !reflect.DeepEqual(resumed, want[off:]) || st.Maximal != full.Maximal {
				t.Errorf("resume delivered %d of %d cliques, %d maximal of %d: not the stream's rest",
					len(resumed), len(want), st.Maximal, full.Maximal)
			}
		})
	}
}
