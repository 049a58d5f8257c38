package ooc

import (
	"context"
	"errors"
	"os"
	"slices"
	"testing"

	"repro/internal/clique"
	"repro/internal/core"
	"repro/internal/enumcfg"
	"repro/internal/graph"
)

var errInjected = errors.New("injected shard failure")

// backwardRunner is the fault-injection seam of the level driver, used
// once: a ShardRunner that joins a level's shards last to first on one
// Joiner, and fails instead of joining shard failShard of level failK
// (failK 0 = never).
type backwardRunner struct {
	g                graph.Interface
	cfg              enumcfg.Config
	failK, failShard int
}

func (b *backwardRunner) RunLevel(ctx context.Context, lv *Level, deliver func(int, ShardResult)) error {
	j := NewJoiner(b.g)
	for i := len(lv.Shards) - 1; i >= 0; i-- {
		if lv.K == b.failK && i == b.failShard {
			return errInjected
		}
		res, err := j.Join(ctx, &ShardJob{
			Dir: b.cfg.Dir, K: lv.K, In: lv.Shards[i],
			Target: lv.Target, Collect: lv.Collect, NewShard: lv.NextShard, OnWrite: lv.Wrote,
		})
		lv.Read(res.BytesRead)
		if err != nil {
			return err
		}
		deliver(i, res)
	}
	return nil
}

// TestLoopOrdersAnyDeliveryOrder: the driver, not the runner, owns the
// canonical order — shards delivered in reverse still emit the
// reference stream with the reference counters.
func TestLoopOrdersAnyDeliveryOrder(t *testing.T) {
	g := plantedGraph(211)
	want, full := orderedKeys(t, g, enumcfg.Config{ShardBytes: 512}, core.Hooks{})
	var got []string
	cfg := enumcfg.Config{Ctx: context.Background(), Dir: t.TempDir(), Workers: 1, ShardBytes: 512}
	h := core.Hooks{Reporter: clique.ReporterFunc(func(c clique.Clique) { got = append(got, c.Key()) })}
	st, err := NewLoop(g, cfg, h, "test").RunSeed(&backwardRunner{g: g, cfg: cfg})
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(got, want) {
		t.Errorf("reverse delivery changed the stream (%d cliques, want %d)", len(got), len(want))
	}
	if st != full {
		t.Errorf("stats diverge from the pool's:\nbackward %+v\npool     %+v", st, full)
	}
}

// TestLoopKeepsBoundaryOnRunnerFailure: a runner failing on shard i of
// level k leaves the checkpoint directory holding the manifest plus
// exactly the consumed level's shards, with Stats.Aborted set, and a
// Resume from it delivers the rest of the reference stream.
func TestLoopKeepsBoundaryOnRunnerFailure(t *testing.T) {
	g := plantedGraph(212)
	want, full := orderedKeys(t, g, enumcfg.Config{ShardBytes: 512}, core.Hooks{})
	const failK, failShard = 4, 1
	var got []string
	dir := t.TempDir()
	cfg := enumcfg.Config{Ctx: context.Background(), Dir: dir, Workers: 1, ShardBytes: 512, Checkpoint: true}
	h := core.Hooks{Reporter: clique.ReporterFunc(func(c clique.Clique) { got = append(got, c.Key()) })}
	st, err := NewLoop(g, cfg, h, "test").RunSeed(&backwardRunner{g: g, cfg: cfg, failK: failK, failShard: failShard})
	if !errors.Is(err, errInjected) {
		t.Fatalf("err = %v, want the injected failure", err)
	}
	if !st.Aborted {
		t.Error("Aborted flag not set")
	}
	m, err := LoadManifest(dir)
	if err != nil {
		t.Fatal(err)
	}
	// At least one later shard was joined before the failure, so there
	// were partial outputs to sweep.
	if m.K != failK || len(m.Shards) < failShard+2 {
		t.Fatalf("manifest names level %d with %d shards; the failure was planned for shard %d of level %d",
			m.K, len(m.Shards), failShard, failK)
	}
	onDisk := []string{manifestName}
	for _, s := range m.Shards {
		onDisk = append(onDisk, s.Path)
	}
	slices.Sort(onDisk)
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range entries {
		names = append(names, e.Name())
	}
	if !slices.Equal(names, onDisk) {
		t.Errorf("checkpoint directory after the failure:\n got %v\nwant %v", names, onDisk)
	}

	rst, err := Resume(g, enumcfg.Config{Dir: dir, ShardBytes: 512}, h)
	if err != nil {
		t.Fatal(err)
	}
	// Shard 0 of the failed level is joined last, so nothing of that
	// level was released: failed prefix + resumed suffix is the stream.
	if !slices.Equal(got, want) {
		t.Errorf("failed run + resume delivered %d cliques, reference %d, or in another order", len(got), len(want))
	}
	if rst.Maximal != full.Maximal || rst.Levels != full.Levels || rst.PeakLevelFile != full.PeakLevelFile {
		t.Errorf("resumed stats %+v, uninterrupted %+v", rst, full)
	}
}

// TestResumeUnderRaisedLo: a resume whose checkpoint lies below a raised
// lower bound re-joins the levels under it without reporting or counting
// their cliques, and streams what a fresh run at that bound streams.
func TestResumeUnderRaisedLo(t *testing.T) {
	const failK, lo = 4, 6
	g := plantedGraph(212)
	want, _ := orderedKeys(t, g, enumcfg.Config{ShardBytes: 512, Lo: lo}, core.Hooks{})
	if len(want) == 0 {
		t.Fatalf("no cliques of size >= %d; broaden the test graph", lo)
	}
	dir := t.TempDir()
	cfg := enumcfg.Config{Ctx: context.Background(), Dir: dir, Workers: 1, ShardBytes: 512, Checkpoint: true}
	if _, err := NewLoop(g, cfg, core.Hooks{}, "test").RunSeed(&backwardRunner{g: g, cfg: cfg, failK: failK}); !errors.Is(err, errInjected) {
		t.Fatalf("err = %v, want the injected failure", err)
	}
	var got []string
	var levels []core.LevelStats
	_, err := Resume(g, enumcfg.Config{Dir: dir, ShardBytes: 512, Lo: lo}, core.Hooks{
		Reporter: clique.ReporterFunc(func(c clique.Clique) { got = append(got, c.Key()) }),
		OnLevel:  func(ls core.LevelStats) { levels = append(levels, ls) },
	})
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(got, want) {
		t.Errorf("resume under Lo %d delivered %d cliques, a fresh run %d, or in another order", lo, len(got), len(want))
	}
	if len(levels) < 2 || levels[0].FromK != failK || levels[0].Maximal != 0 {
		t.Errorf("resumed level records %+v: want the first from %d, counting no maximal cliques", levels, failK)
	}
}
