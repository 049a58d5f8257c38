package core

import (
	"context"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/bitset"
	"repro/internal/graph"
	"repro/internal/membudget"
)

// arenaTestGraph is a graph dense enough to run several generation
// levels with hundreds of retained sub-lists per level — the load the
// arena pin needs to be meaningful.
func arenaTestGraph() *graph.Graph {
	rng := rand.New(rand.NewSource(71))
	g := graph.PlantedGraph(rng, 120, []graph.PlantedCliqueSpec{
		{Size: 9}, {Size: 8, Overlap: 3}, {Size: 7, Overlap: 2}, {Size: 7},
	}, 600)
	return g
}

// runLevels drives the sequential level loop from the given seed to
// exhaustion on one builder and reports how many sub-lists were retained
// across all levels.  The seed level is read-only in recompute mode, so
// callers may reuse it across runs.
func runLevels(g *graph.Graph, seed *Level, b *Builder) (retained int) {
	lvl := seed
	for len(lvl.Sub) > 0 {
		next, _ := Step(g, lvl, nil, b)
		retained += next.Sublists()
		lvl = next
	}
	return retained
}

// TestLevelLoopAllocs pins the block store's guarantee: once the free
// lists are warm, a full level loop allocates the Level header Step
// returns per level and nothing else — no header per retained sub-list,
// no growth of a sub-list index.  Recompute mode isolates the level
// storage itself from bitmap-pool and WAH-compression churn.
func TestLevelLoopAllocs(t *testing.T) {
	g := arenaTestGraph()
	seed, _, _ := Seed(context.Background(), g, 2, CNRecompute, 1, false, nil)
	b := NewBuilderMode(g, CNRecompute, bitset.NewPool(g.N()))

	retained := runLevels(g, seed, b) // warm the arenas and scratch
	if retained < 200 {
		t.Fatalf("only %d sub-lists retained; graph too easy to pin allocations", retained)
	}

	allocs := testing.AllocsPerRun(5, func() {
		runLevels(g, seed, b)
	})
	// One *Level per Step (the graph runs seven levels); the pointer-per-
	// sub-list store needed 32 with its headers recycled, hundreds
	// without.
	if allocs > 8 {
		t.Errorf("level loop allocates %.0f objects per run with warm arenas (retained %d sub-lists); want <= 8",
			allocs, retained)
	}
	t.Logf("%.0f allocs/run, %d sub-lists retained", allocs, retained)
}

// TestArenaLedgerChargesOnce pins the accounting contract of recycling:
// a sealed block's bytes are charged to the governor exactly once,
// whether its words lie in a fresh chunk or a recycled one, and every
// charge is released by the level loop — so a second run on warm (fully
// recycled) arenas shows the same peak and the ledger returns to zero
// both times.
func TestArenaLedgerChargesOnce(t *testing.T) {
	g := arenaTestGraph()
	seed, _, _ := Seed(context.Background(), g, 2, CNRecompute, 1, false, nil)
	b := NewBuilderMode(g, CNRecompute, bitset.NewPool(g.N()))
	// The local universe and its memo are builder scratch, not level
	// storage: grown up front and uncharged, the ledger below sees blocks
	// only.
	b.grow(g.N(), g.N(), g.N())

	run := func() (peak int64) {
		gov := membudget.New(0) // unlimited: observe, never trip
		b.Gov = gov
		lvl := seed
		gov.Charge(lvl.Bytes())
		for len(lvl.Sub) > 0 {
			next, st := Step(g, lvl, nil, b)
			if st.NextBytes != next.Bytes() {
				t.Fatalf("level %d: step reports %d produced bytes, its blocks sum to %d", next.K, st.NextBytes, next.Bytes())
			}
			gov.Release(st.Bytes)
			lvl = next
		}
		gov.Release(lvl.Bytes())
		if used := gov.Used(); used != 0 {
			t.Fatalf("governor ledger unbalanced after run: used = %d", used)
		}
		return gov.Peak()
	}

	cold := run()
	blocksAfterCold := b.sink.chunks.blocks()
	warm := run()
	if cold != warm {
		t.Errorf("peak differs between cold (%d) and warm (%d) arenas: recycled storage is not charged once", cold, warm)
	}
	if grown := b.sink.chunks.blocks(); grown > blocksAfterCold {
		t.Errorf("arena grew from %d to %d blocks on an identical warm run; free lists are not recycling",
			blocksAfterCold, grown)
	}
}

// TestArenaLag2Liveness pins the recycling lag: the storage of a
// produced level must stay intact while the NEXT level is generated
// (one further Reset), because that is exactly when the driver loops
// read it.  The words of every block are captured at each step and
// compared again after the step that consumed them.
func TestArenaLag2Liveness(t *testing.T) {
	g := arenaTestGraph()
	seed, _, _ := Seed(context.Background(), g, 2, CNRecompute, 1, false, nil)
	b := NewBuilderMode(g, CNRecompute, bitset.NewPool(g.N()))

	lvl := seed
	for len(lvl.Sub) > 0 {
		// Snapshot the current level's contents, step (which Resets once
		// and reads lvl), and verify the snapshot never changed beneath
		// the consuming loop.
		blocks := lvl.Sub
		snaps := make([][]uint32, len(blocks))
		for i := range blocks {
			snaps[i] = slices.Clone(blocks[i].Words())
		}
		next, _ := Step(g, lvl, nil, b)
		for i := range blocks {
			if !slices.Equal(blocks[i].Words(), snaps[i]) {
				t.Fatalf("level k=%d block %d mutated while being consumed", lvl.K, i)
			}
		}
		lvl = next
	}
}
