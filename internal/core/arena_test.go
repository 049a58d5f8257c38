package core

import (
	"math/rand"
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
		retained += len(next.Sub)
		lvl = next
	}
	return retained
}

// TestLevelLoopAllocs pins the arena guarantee: once the free lists are
// warm, a full level loop allocates O(levels) — the Level headers Step
// returns — instead of three heap objects (header, prefix, tails) per
// retained sub-list.  Recompute mode isolates the level storage itself
// from bitmap-pool and WAH-compression churn.
func TestLevelLoopAllocs(t *testing.T) {
	g := arenaTestGraph()
	seed := SeedFromEdgesMode(g, CNRecompute)
	b := NewBuilderMode(g, CNRecompute, bitset.NewPool(g.N()))

	retained := runLevels(g, seed, b) // warm the arenas and scratch
	if retained < 200 {
		t.Fatalf("only %d sub-lists retained; graph too easy to pin allocations", retained)
	}

	allocs := testing.AllocsPerRun(5, func() {
		runLevels(g, seed, b)
	})
	// One *Level per Step plus slack for a rare block-schedule step; the
	// pre-arena implementation allocated 3x per retained sub-list
	// (hundreds per run).
	if allocs > 32 {
		t.Errorf("level loop allocates %.0f objects per run with warm arenas (retained %d sub-lists); want <= 32",
			allocs, retained)
	}
}

// TestArenaLedgerChargesOnce pins the accounting contract of recycling:
// a retained sub-list's paper-formula bytes are charged to the governor
// exactly once, whether its storage came from a fresh block or a
// recycled one, and every charge is released by the level loop — so a
// second run on warm (fully recycled) arenas shows the same peak and
// the ledger returns to zero both times.
func TestArenaLedgerChargesOnce(t *testing.T) {
	g := arenaTestGraph()
	seed := SeedFromEdgesMode(g, CNRecompute)
	b := NewBuilderMode(g, CNRecompute, bitset.NewPool(g.N()))
	// The prefix memo is builder scratch, not level storage: grown up
	// front and uncharged, the ledger below sees sub-lists only.
	b.growMemo(g.N())

	run := func() (peak int64) {
		gov := membudget.New(0) // unlimited: observe, never trip
		b.Gov = gov
		lvl := seed
		gov.Charge(lvl.Bytes(g.N()))
		for len(lvl.Sub) > 0 {
			next, st := Step(g, lvl, nil, b)
			gov.Release(st.Bytes)
			lvl = next
		}
		gov.Release(lvl.Bytes(g.N()))
		if used := gov.Used(); used != 0 {
			t.Fatalf("governor ledger unbalanced after run: used = %d", used)
		}
		return gov.Peak()
	}

	cold := run()
	blocksAfterCold := b.u32s.blocks() + b.subs.blocks()
	warm := run()
	if cold != warm {
		t.Errorf("peak differs between cold (%d) and warm (%d) arenas: recycled storage is not charged once", cold, warm)
	}
	if grown := b.u32s.blocks() + b.subs.blocks(); grown > blocksAfterCold {
		t.Errorf("arena grew from %d to %d blocks on an identical warm run; free lists are not recycling",
			blocksAfterCold, grown)
	}
}

// TestArenaLag2Liveness pins the recycling lag: the storage of a
// produced level must stay intact while the NEXT level is generated
// (one further Reset), because that is exactly when the driver loops
// read it.  The sub-lists captured at each step are re-validated right
// before the step that consumes them.
func TestArenaLag2Liveness(t *testing.T) {
	g := arenaTestGraph()
	seed := SeedFromEdgesMode(g, CNRecompute)
	b := NewBuilderMode(g, CNRecompute, bitset.NewPool(g.N()))

	lvl := seed
	for len(lvl.Sub) > 0 {
		// Snapshot the current level's contents, step (which Resets once
		// and reads lvl), and verify the snapshot never changed beneath
		// the consuming loop.
		type snap struct {
			prefix []uint32
			tails  []uint32
		}
		snaps := make([]snap, len(lvl.Sub))
		for i, s := range lvl.Sub {
			snaps[i] = snap{
				prefix: append([]uint32(nil), s.Prefix...),
				tails:  append([]uint32(nil), s.Tails...),
			}
		}
		subs := lvl.Sub
		next, _ := Step(g, lvl, nil, b)
		for i, s := range subs {
			if !equalU32(s.Prefix, snaps[i].prefix) || !equalU32(s.Tails, snaps[i].tails) {
				t.Fatalf("level k=%d sub-list %d mutated while being consumed", lvl.K, i)
			}
		}
		lvl = next
	}
}

func equalU32(a, b []uint32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
