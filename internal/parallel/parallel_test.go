package parallel_test

import (
	"context"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/clique"
	"repro/internal/core"
	"repro/internal/enumcfg"
	"repro/internal/graph"
	"repro/internal/hybrid"
	"repro/internal/membudget"
	"repro/internal/parallel"
	"repro/internal/sched"
	"repro/internal/testgraph"
)

func testGraph(seed int64) *graph.Graph {
	rng := rand.New(rand.NewSource(seed))
	return graph.PlantedGraph(rng, 60, []graph.PlantedCliqueSpec{
		{Size: 9}, {Size: 6, Overlap: 3}, {Size: 5, Overlap: 2},
	}, 120)
}

func sequentialCliques(t *testing.T, g *graph.Graph, lo, hi int) []clique.Clique {
	t.Helper()
	col := &clique.Collector{}
	if _, err := hybrid.Enumerate(g, enumcfg.Config{Lo: lo, Hi: hi}, core.Hooks{Reporter: col}); err != nil {
		t.Fatal(err)
	}
	return col.Cliques
}

func TestMatchesSequentialAcrossWorkerCounts(t *testing.T) {
	g := testGraph(61)
	want := sequentialCliques(t, g, 2, 0)
	for _, workers := range []int{1, 2, 3, 4, 7} {
		for _, strategy := range []enumcfg.Strategy{enumcfg.Contiguous, enumcfg.Affinity} {
			col := &clique.Collector{}
			res, err := hybrid.Enumerate(g, enumcfg.Config{
				Workers:  workers,
				Strategy: strategy,
			}, core.Hooks{Reporter: col})
			if err != nil {
				t.Fatal(err)
			}
			if ok, diff := clique.SameSets(col.Cliques, want); !ok {
				t.Fatalf("workers=%d strategy=%d: %s", workers, strategy, diff)
			}
			if res.MaximalCliques != int64(len(want)) {
				t.Errorf("workers=%d strategy=%d: count %d, want %d",
					workers, strategy, res.MaximalCliques, len(want))
			}
		}
	}
}

func TestCountsWithoutReporter(t *testing.T) {
	g := testGraph(62)
	want := sequentialCliques(t, g, 2, 0)
	res, err := hybrid.Enumerate(g, enumcfg.Config{Workers: 3}, core.Hooks{})
	if err != nil {
		t.Fatal(err)
	}
	if res.MaximalCliques != int64(len(want)) {
		t.Errorf("count %d, want %d", res.MaximalCliques, len(want))
	}
	maxSize := 0
	for _, c := range want {
		if len(c) > maxSize {
			maxSize = len(c)
		}
	}
	if res.MaxCliqueSize != maxSize {
		t.Errorf("MaxCliqueSize = %d, want %d", res.MaxCliqueSize, maxSize)
	}
}

func TestSeededParallelMatchesSequential(t *testing.T) {
	g := testGraph(63)
	for _, initK := range []int{4, 6, 8} {
		want := sequentialCliques(t, g, initK, 0)
		col := &clique.Collector{}
		_, err := hybrid.Enumerate(g, enumcfg.Config{
			Workers:  4,
			Lo:       initK,
			Strategy: enumcfg.Affinity,
		}, core.Hooks{Reporter: col})
		if err != nil {
			t.Fatal(err)
		}
		if ok, diff := clique.SameSets(col.Cliques, want); !ok {
			t.Fatalf("Init_K=%d: %s", initK, diff)
		}
	}
}

func TestUpperBoundHonored(t *testing.T) {
	g := testGraph(64)
	want := sequentialCliques(t, g, 2, 6)
	col := &clique.Collector{}
	if _, err := hybrid.Enumerate(g, enumcfg.Config{Workers: 3, Hi: 6}, core.Hooks{Reporter: col}); err != nil {
		t.Fatal(err)
	}
	if ok, diff := clique.SameSets(col.Cliques, want); !ok {
		t.Fatalf("Hi=6: %s", diff)
	}
}

func TestContiguousPreservesCanonicalOrder(t *testing.T) {
	g := testGraph(65)
	var got []clique.Clique
	_, err := hybrid.Enumerate(g, enumcfg.Config{
		Workers:  4,
		Strategy: enumcfg.Contiguous,
	}, core.Hooks{Reporter: clique.ReporterFunc(func(c clique.Clique) {
		got = append(got, append(clique.Clique(nil), c...))
	})})
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(got); i++ {
		if clique.Compare(got[i-1], got[i]) >= 0 {
			t.Fatalf("order violated at %d: %v then %v", i, got[i-1], got[i])
		}
	}
}

func TestAffinityNonDecreasingSizes(t *testing.T) {
	g := testGraph(66)
	lastSize := 0
	_, err := hybrid.Enumerate(g, enumcfg.Config{
		Workers:  4,
		Strategy: enumcfg.Affinity,
	}, core.Hooks{Reporter: clique.ReporterFunc(func(c clique.Clique) {
		if len(c) < lastSize {
			t.Fatalf("size order violated: %d after %d", len(c), lastSize)
		}
		lastSize = len(c)
	})})
	if err != nil {
		t.Fatal(err)
	}
}

func TestRecomputeCNParallel(t *testing.T) {
	g := testGraph(67)
	// The pool, rebuilding every prefix's bitmap, must agree with the
	// sequential reference.
	ref := &clique.Collector{}
	if _, err := hybrid.Enumerate(g, enumcfg.Config{}, core.Hooks{Reporter: ref}); err != nil {
		t.Fatal(err)
	}
	col := &clique.Collector{}
	if _, err := hybrid.Enumerate(g, enumcfg.Config{Workers: 2}, core.Hooks{Reporter: col}); err != nil {
		t.Fatal(err)
	}
	if ok, diff := clique.SameSets(col.Cliques, ref.Cliques); !ok {
		t.Fatal(diff)
	}
}

// TestStoredSeedThroughDefaultEngines: the benchmark's traced replay
// still asks the seeder for stored bitmaps (core.CNStore, which it
// ignores) and drives the engines level by level, charging the governor
// itself; both engines must join that seed, emit the sequential
// reference in order, and leave the ledger balanced.
func TestStoredSeedThroughDefaultEngines(t *testing.T) {
	g := testGraph(67)
	want := sequentialCliques(t, g, 3, 0)
	for _, name := range []string{"builder", "pool"} {
		t.Run(name, func(t *testing.T) {
			gov := membudget.New(0)
			var eng core.LevelEngine
			var stop func() // stops the engine: its scratch and bookkeeping leave the ledger
			if name == "pool" {
				p, err := parallel.NewPool(g, parallel.Options{Workers: 2, Lo: 3, Strategy: enumcfg.Affinity, Gov: gov})
				if err != nil {
					t.Fatal(err)
				}
				defer p.Close()
				eng, stop = p, p.Close
			} else {
				b := core.NewBuilder(g)
				b.Gov = gov
				gov.Charge(b.ScratchBytes())
				eng, stop = b, func() { gov.Release(b.ScratchBytes()) }
			}
			col := &clique.Collector{}
			lvl, homes, _, err := core.SeedFromKParallel(g, 3, core.CNStore, 2, col)
			if err != nil {
				t.Fatal(err)
			}
			gov.Charge(lvl.Bytes())
			for len(lvl.Sub) > 0 {
				consumed := lvl.Bytes()
				out := eng.RunLevel(context.Background(), lvl, homes, col, nil)
				gov.Release(consumed)
				lvl, homes = out.Next, out.Homes
			}
			gov.Release(lvl.Bytes())
			if len(col.Cliques) != len(want) {
				t.Fatalf("%d cliques, want %d", len(col.Cliques), len(want))
			}
			for i := range want {
				if col.Cliques[i].Key() != want[i].Key() {
					t.Fatalf("stream diverges from the sequential reference at %d", i)
				}
			}
			stop()
			if gov.Used() != 0 {
				t.Errorf("governor at %d after the run and the engine's stop", gov.Used())
			}
		})
	}
}

func TestLevelStatsPopulated(t *testing.T) {
	g := testGraph(68)
	var levels []core.LevelStats
	res, err := hybrid.Enumerate(g, enumcfg.Config{Workers: 3}, core.Hooks{OnLevel: func(st core.LevelStats) { levels = append(levels, st) }})
	if err != nil {
		t.Fatal(err)
	}
	if len(levels) != len(res.Levels) {
		t.Fatalf("OnLevel fired %d times, %d levels recorded", len(levels), len(res.Levels))
	}
	var total int64
	var transfers int
	busy := make([]float64, 3)
	for _, st := range levels {
		if len(st.WorkerBusy) != 3 || len(st.WorkerCost) != 3 {
			t.Fatalf("per-worker stats missing: %+v", st)
		}
		total += st.Maximal
		transfers += st.Transfers
		for w, b := range st.WorkerBusy {
			busy[w] += b
		}
	}
	if total != res.MaximalCliques {
		t.Errorf("level maximal sum %d != result %d", total, res.MaximalCliques)
	}
	// The result is the fold of the level stream, scheduling totals too.
	if !slices.Equal(res.WorkerBusy, busy) || res.Transfers != transfers {
		t.Errorf("WorkerBusy %v, Transfers %d; the levels sum to %v, %d", res.WorkerBusy, res.Transfers, busy, transfers)
	}
}

// TestBarrierAffinityActsFromLevelOne is the regression test for the
// seed-ownership bug: seeding used to leave sub-list ownership unset, so
// the Affinity strategy silently ran a contiguous split on the first
// generation level (transfers were impossible there by construction).
// With creator ownership assigned at seed time, the barrier backend's
// level-one assignment starts from the seeding thread's queue and the
// threshold balancer must move work — deterministically, because the
// barrier's transfer decision is pure arithmetic.
func TestBarrierAffinityActsFromLevelOne(t *testing.T) {
	rng := rand.New(rand.NewSource(69))
	g := graph.PlantedGraph(rng, 80, []graph.PlantedCliqueSpec{{Size: 12}}, 60)
	var first *core.LevelStats
	res, err := parallel.EnumerateBarrier(g, parallel.Options{
		Workers:  4,
		Strategy: enumcfg.Affinity,
		Policy:   sched.Policy{RelTolerance: 0.05},
		OnLevel: func(st core.LevelStats) {
			if first == nil {
				first = &st
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if first == nil {
		t.Fatal("no levels ran")
	}
	if first.Transfers == 0 {
		t.Errorf("level %d->%d: no transfers — Affinity not in effect from level one", first.FromK, first.FromK+1)
	}
	want := sequentialCliques(t, g, 2, 0)
	if res.MaximalCliques != int64(len(want)) {
		t.Errorf("count %d, want %d", res.MaximalCliques, len(want))
	}
}

// TestStrategyParity: both dispatch strategies, on both backends, must
// count exactly the same maximal cliques across a spread of seeds.
func TestStrategyParity(t *testing.T) {
	for seed := int64(100); seed < 108; seed++ {
		g := testGraph(seed)
		want := int64(len(sequentialCliques(t, g, 2, 0)))
		for _, workers := range []int{2, 5} {
			counts := map[string]int64{}
			for name, strategy := range map[string]enumcfg.Strategy{"contiguous": enumcfg.Contiguous, "affinity": enumcfg.Affinity} {
				res, err := hybrid.Enumerate(g, enumcfg.Config{Workers: workers, Strategy: strategy}, core.Hooks{})
				if err != nil {
					t.Fatal(err)
				}
				counts["streaming/"+name] = res.MaximalCliques
				bres, err := parallel.EnumerateBarrier(g, parallel.Options{Workers: workers, Strategy: strategy})
				if err != nil {
					t.Fatal(err)
				}
				counts["barrier/"+name] = bres.MaximalCliques
			}
			for name, got := range counts {
				if got != want {
					t.Errorf("seed %d workers %d %s: %d maximal cliques, want %d",
						seed, workers, name, got, want)
				}
			}
		}
	}
}

// The streaming merger releases emissions in sub-list order, so the
// Affinity strategy now delivers full canonical order too — not just
// non-decreasing sizes — even with a stealing threshold low enough to
// move blocks on every level.
func TestAffinityPreservesCanonicalOrder(t *testing.T) {
	g := testGraph(71)
	var got []clique.Clique
	rep := clique.ReporterFunc(func(c clique.Clique) {
		got = append(got, append(clique.Clique(nil), c...))
	})
	p, err := parallel.NewPool(g, parallel.Options{
		Workers:  4,
		Strategy: enumcfg.Affinity,
		Policy:   sched.Policy{RelTolerance: 0.01},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	lvl, homes, err := core.Seed(context.Background(), g, 2, 4, false, rep, nil)
	if err != nil {
		t.Fatal(err)
	}
	loop := core.Loop{Hooks: core.Hooks{Reporter: rep}}
	if err := loop.Run(p, lvl, homes); err != nil {
		t.Fatal(err)
	}
	if len(got) == 0 {
		t.Fatal("no cliques")
	}
	for i := 1; i < len(got); i++ {
		if clique.Compare(got[i-1], got[i]) >= 0 {
			t.Fatalf("order violated at %d: %v then %v", i, got[i-1], got[i])
		}
	}
}

// TestNoGoroutineOutlivesItsLevel pins the pool's lifetimes: a level's
// goroutines end with the RunLevel call that started them, and only the
// builders stay until Close.
func TestNoGoroutineOutlivesItsLevel(t *testing.T) {
	g := testGraph(73)
	check := testgraph.NoLeaks(t, nil)
	p, err := parallel.NewPool(g, parallel.Options{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	lvl, homes, err := core.Seed(context.Background(), g, 2, 4, false, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if out := p.RunLevel(context.Background(), lvl, homes, nil, nil); out.Next.Cliques() == 0 {
		t.Fatal("the level produced nothing")
	}
	check()
}

func TestBarrierMatchesSequential(t *testing.T) {
	g := testGraph(72)
	want := sequentialCliques(t, g, 2, 0)
	for _, strategy := range []enumcfg.Strategy{enumcfg.Contiguous, enumcfg.Affinity} {
		col := &clique.Collector{}
		if _, err := parallel.EnumerateBarrier(g, parallel.Options{Workers: 4, Strategy: strategy, Reporter: col}); err != nil {
			t.Fatal(err)
		}
		if ok, diff := clique.SameSets(col.Cliques, want); !ok {
			t.Fatalf("strategy %d: %s", strategy, diff)
		}
	}
}

func TestSeededBarrierMatchesSequential(t *testing.T) {
	g := testGraph(74)
	for _, initK := range []int{4, 6} {
		want := sequentialCliques(t, g, initK, 0)
		col := &clique.Collector{}
		if _, err := parallel.EnumerateBarrier(g, parallel.Options{
			Workers: 3, Lo: initK, Strategy: enumcfg.Affinity, Reporter: col,
		}); err != nil {
			t.Fatal(err)
		}
		if ok, diff := clique.SameSets(col.Cliques, want); !ok {
			t.Fatalf("Init_K=%d: %s", initK, diff)
		}
	}
}

func TestInvalidOptions(t *testing.T) {
	g := graph.New(3)
	if _, err := parallel.NewPool(g, parallel.Options{Workers: 0}); err == nil {
		t.Error("0 workers accepted")
	}
	if _, err := parallel.NewPool(g, parallel.Options{Workers: 1, Lo: 5, Hi: 4}); err == nil {
		t.Error("Hi < Lo accepted")
	}
}

func BenchmarkParallel2Workers(b *testing.B) {
	rng := rand.New(rand.NewSource(70))
	g := graph.PlantedGraph(rng, 300, []graph.PlantedCliqueSpec{{Size: 14}}, 700)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := hybrid.Enumerate(g, enumcfg.Config{Workers: 2}, core.Hooks{}); err != nil {
			b.Fatal(err)
		}
	}
}
