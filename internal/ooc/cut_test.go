package ooc_test

import (
	"context"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/clique"
	"repro/internal/core"
	"repro/internal/enumcfg"
	"repro/internal/graph"
	"repro/internal/membudget"
	"repro/internal/ooc"
	"repro/internal/testgraph"
)

// tripAt is the sequential engine with a trip on cue: on the level of
// size-k records its trip callback, polled where a run starts, fires at
// run start number at (a negative at never fires, and the level then ends
// over budget, which core.Loop treats as a trip with nothing left beyond
// the frontier).  It keeps the cut it made for the test to check.
type tripAt struct {
	*core.Builder
	k, at int
	cut   core.Cursor
}

func (e *tripAt) RunLevel(ctx context.Context, lvl *core.Level, homes []int32,
	r clique.Reporter, _ func() bool) core.LevelOutcome {
	if lvl.K != e.k {
		return e.Builder.RunLevel(ctx, lvl, homes, r, nil)
	}
	seen := 0
	out := e.Builder.RunLevel(ctx, lvl, homes, r, func() bool {
		seen++
		return e.at >= 0 && seen > e.at
	})
	out.Tripped = true
	e.cut = out.Frontier
	return out
}

// TestContinueFromEveryCutShape hands ooc.Continue each shape of cut a
// trip can leave — nothing joined yet, a run start inside a block (the
// sequential engine's), one between blocks (the pool's, and the
// sequential engine's too) and the level's end, where the rest is empty.
// The stream must be the unbudgeted run's byte for byte, the spilled step
// must be reported once with the in-core run's work, Cost whole, every
// later level must hold what the in-core one does and count the same
// work, and the governor and the spill directory must be back where they
// started.
func TestContinueFromEveryCutShape(t *testing.T) {
	g := graph.RandomGNP(rand.New(rand.NewSource(9)), 150, 0.4)
	const lo, k = 3, 5 // the cut step joins 5-cliques into 6-cliques
	run := func(t *testing.T, e *tripAt, dir string) ([]string, []core.LevelStats) {
		t.Helper()
		const entry = 12345
		gov := membudget.New(0)
		gov.Charge(entry)
		defer gov.Release(entry)
		var keys []string
		var levels []core.LevelStats
		hooks := core.Hooks{
			Reporter: clique.ReporterFunc(func(c clique.Clique) { keys = append(keys, c.Key()) }),
			OnLevel:  func(st core.LevelStats) { levels = append(levels, st) },
			Gov:      gov,
		}
		dirs := []string{dir}
		if dir == "" {
			dirs = nil
		}
		check := testgraph.NoLeaks(t, gov, dirs...)
		lvl, _, err := core.Seed(context.Background(), g, lo, 1, false, hooks.Reporter, nil)
		if err != nil {
			t.Fatal(err)
		}
		// The engine's scratch is charged while it runs, and stops before
		// the spill, as the hybrid backend's does.
		b := core.NewBuilder(g)
		b.Gov, e.Builder = gov, b
		gov.Charge(b.ScratchBytes())
		stopped := false
		stop := func() {
			if !stopped {
				stopped = true
				gov.Release(b.ScratchBytes())
			}
		}
		loop := core.Loop{Ctx: context.Background(), Hooks: hooks}
		if dir != "" {
			cfg := enumcfg.Config{Lo: lo, Dir: dir}
			loop.OnTrip = func(lvl *core.Level, out core.LevelOutcome) error {
				stop()
				_, err := ooc.Continue(g, cfg, hooks, lvl, out)
				return err
			}
		}
		err = loop.Run(e, lvl, nil)
		stop()
		if err != nil {
			t.Fatal(err)
		}
		check()
		return keys, levels
	}
	want, ref := run(t, &tripAt{k: -1}, "")

	// The level the trip cuts, as the engine will see it, and the word
	// offsets of a block's run starts.
	cutLevel, _, err := core.Seed(context.Background(), g, lo, 1, false, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	b := core.NewBuilder(g)
	for cutLevel.K < k {
		cutLevel, _ = core.Step(g, cutLevel, nil, b)
	}
	runs := func(b int) []int {
		var starts []int
		words := cutLevel.Sub[b].Words()
		for p := 0; p < len(words); {
			n, lcp, _ := core.RecordAt(words, p, k)
			if lcp == 0 {
				starts = append(starts, p)
			}
			p += n
		}
		return starts
	}
	blocks, mid, before := len(cutLevel.Sub), len(cutLevel.Sub)/2, 0
	if mid < 1 || len(runs(mid)) < 2 {
		t.Fatalf("fixture: level %d has %d blocks", k, blocks)
	}
	for b := range mid {
		before += len(runs(b))
	}
	for _, c := range []struct {
		name string
		at   int // the run start the trip fires at (-1: none)
		cut  core.Cursor
	}{
		{"first-record", 0, core.Cursor{}},
		{"mid-block", before + 1, core.Cursor{Block: mid, Word: runs(mid)[1]}},
		{"block-boundary", before, core.Cursor{Block: mid}},
		{"level-end", -1, core.Cursor{Block: blocks}},
	} {
		t.Run(c.name, func(t *testing.T) {
			e := &tripAt{k: k, at: c.at}
			got, levels := run(t, e, t.TempDir())
			if e.cut != c.cut {
				t.Fatalf("the trip cut at %+v, want %+v", e.cut, c.cut)
			}
			if !slices.Equal(got, want) {
				t.Fatalf("stream differs from the unbudgeted run's: %d cliques, want %d", len(got), len(want))
			}
			if len(levels) != len(ref) {
				t.Fatalf("%d level records, the in-core run has %d", len(levels), len(ref))
			}
			for i, st := range levels {
				w := ref[i]
				same := st.FromK == w.FromK && st.Maximal == w.Maximal && st.Dropped == w.Dropped &&
					st.Cost == w.Cost
				switch {
				case st.FromK < k:
					same = same && !st.Spilled
				case st.FromK == k:
					// The spilled step: its in-core part, nothing resident.
					same = same && st.Spilled && st.Sublists == w.Sublists && st.Cliques == w.Cliques &&
						st.Bytes == w.Bytes && st.NextSub == 0 && st.NextCl == 0 && st.NextBytes == 0
				default:
					// A level on disk holds the in-core level's cliques.
					same = same && st.Spilled && st.Cliques == w.Cliques
				}
				if !same {
					t.Errorf("step %d->%d:\n got %+v\nwant %+v", w.FromK, w.FromK+1, st, w)
				}
			}
		})
	}
}
