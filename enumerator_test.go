package repro_test

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"

	"repro"
	"repro/internal/graph"
	"repro/internal/membudget"
	"repro/internal/testgraph"
)

// testGraph builds a randomized graph with enough planted structure to
// produce maximal cliques across several sizes.
func testGraph(seed int64, n int, p float64) *repro.Graph {
	rng := rand.New(rand.NewSource(seed))
	g := graph.RandomGNP(rng, n, p)
	// Plant overlapping modules so every backend has multi-level work.
	repro.PlantClique(g, []int{0, 1, 2, 3, 4, 5, 6})
	repro.PlantClique(g, []int{4, 5, 6, 7, 8})
	repro.PlantClique(g, []int{n - 5, n - 4, n - 3, n - 2, n - 1})
	return g
}

// stream runs e over g and returns the emitted cliques as ordered keys.
func stream(t *testing.T, e *repro.Enumerator, g *repro.Graph) []string {
	t.Helper()
	var keys []string
	n, err := e.Run(context.Background(), g, repro.ReporterFunc(func(c repro.Clique) {
		keys = append(keys, c.Key())
	}))
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if int(n) != len(keys) {
		t.Fatalf("Run reported %d cliques, delivered %d", n, len(keys))
	}
	return keys
}

// TestBackendParity asserts the facade's acceptance property: the
// sequential, parallel, and out-of-core backends produce identical
// ordered clique streams through the one Enumerator API.  With small
// cliques reported the in-core engines and a spilling run must too: the
// 1- and 2-cliques come from the seed, ahead of every level, at any width.
func TestBackendParity(t *testing.T) {
	type backend struct {
		name string
		opts []repro.Option
	}
	same := func(t *testing.T, g *repro.Graph, seed int64, backends []backend, bounds repro.Option) {
		t.Helper()
		want := stream(t, repro.NewEnumerator(append(backends[0].opts, bounds)...), g)
		if len(want) == 0 {
			t.Fatalf("seed %d: no cliques from the reference backend", seed)
		}
		for _, b := range backends[1:] {
			got := stream(t, repro.NewEnumerator(append(b.opts, bounds)...), g)
			if len(got) != len(want) {
				t.Fatalf("seed %d: %s delivered %d cliques, want %d", seed, b.name, len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("seed %d: %s stream diverges at %d: got {%s}, want {%s}",
						seed, b.name, i, got[i], want[i])
				}
			}
		}
	}
	for seed := int64(1); seed <= 4; seed++ {
		g := testGraph(seed, 80, 0.15)
		same(t, g, seed, []backend{
			{"sequential", nil},
			{"parallel-affinity", []repro.Option{repro.WithWorkers(3), repro.WithStrategy(repro.Affinity)}},
			{"parallel-contiguous", []repro.Option{repro.WithWorkers(2), repro.WithStrategy(repro.Contiguous)}},
			{"out-of-core", []repro.Option{repro.WithOutOfCore(t.TempDir(), 0)}},
			{"out-of-core-parallel", []repro.Option{repro.WithOutOfCore(t.TempDir(), 0,
				repro.OOCWorkers(4))}},
			{"out-of-core-3-workers", []repro.Option{repro.WithOutOfCore(t.TempDir(), 0,
				repro.OOCWorkers(3))}},
			{"store", []repro.Option{repro.WithStoredBitmaps()}},
		}, repro.WithBounds(3, 0))
		small := repro.WithReportSmall()
		same(t, g, seed, []backend{
			{"small-sequential", []repro.Option{small}},
			{"small-affinity", []repro.Option{small, repro.WithWorkers(2), repro.WithStrategy(repro.Affinity)}},
			{"small-contiguous", []repro.Option{small, repro.WithWorkers(2), repro.WithStrategy(repro.Contiguous)}},
			// A budget these graphs outgrow generating their 3-cliques.
			{"small-spillover", []repro.Option{small, repro.WithWorkers(2),
				repro.WithSpillover(t.TempDir()), repro.WithMemoryBudget(4 << 10)}},
		}, repro.WithBounds(1, 0))
	}
}

// TestCliquesIteratorYieldsStableCliques retains every yielded clique and
// checks them after the run: Cliques must yield owned copies, unlike the
// borrowed Reporter emissions.
func TestCliquesIteratorYieldsStableCliques(t *testing.T) {
	g := testGraph(7, 60, 0.15)
	e := repro.NewEnumerator(repro.WithBounds(3, 0))
	var retained []repro.Clique
	for c, err := range e.Cliques(context.Background(), g) {
		if err != nil {
			t.Fatalf("Cliques: %v", err)
		}
		retained = append(retained, c) // deliberately no copy
	}
	want := stream(t, e, g)
	if len(retained) != len(want) {
		t.Fatalf("iterator yielded %d cliques, Run delivered %d", len(retained), len(want))
	}
	for i, c := range retained {
		if c.Key() != want[i] {
			t.Errorf("retained clique %d corrupted: got {%s}, want {%s}", i, c.Key(), want[i])
		}
		if !graph.IsMaximalClique(g, c) {
			t.Errorf("retained clique %d (%v) is not a maximal clique", i, c)
		}
	}
}

// TestCliqueCloneSurvivesReporterReuse documents the Reporter borrow rule
// and its Clone escape hatch.
func TestCliqueCloneSurvivesReporterReuse(t *testing.T) {
	g := testGraph(9, 50, 0.15)
	var borrowed, cloned []repro.Clique
	_, err := repro.NewEnumerator(repro.WithBounds(3, 0)).Run(context.Background(), g,
		repro.ReporterFunc(func(c repro.Clique) {
			borrowed = append(borrowed, c)
			cloned = append(cloned, c.Clone())
		}))
	if err != nil {
		t.Fatal(err)
	}
	for i, c := range cloned {
		if !graph.IsMaximalClique(g, c) {
			t.Fatalf("cloned clique %d (%v) is not maximal: Clone is broken", i, c)
		}
	}
	// The borrowed slices share backing arrays; at least one should have
	// been overwritten by later emissions (that is the point of Clone).
	damaged := 0
	for _, c := range borrowed {
		if !c.Canonical() || !graph.IsMaximalClique(g, c) {
			damaged++
		}
	}
	if damaged == 0 {
		t.Log("no borrowed clique was overwritten on this graph (reuse is allowed, not required)")
	}
}

// TestCancellationMidRun cancels each backend mid-enumeration and checks
// it unwinds cleanly: ctx error surfaced, no goroutine leak, no leftover
// spill files, partial stats retained.
func TestCancellationMidRun(t *testing.T) {
	g := testGraph(3, 200, 0.25) // dense enough for a multi-level run
	spill := t.TempDir()
	backends := []struct {
		name string
		opts []repro.Option
	}{
		{"sequential", nil},
		{"parallel", []repro.Option{repro.WithWorkers(4), repro.WithStrategy(repro.Affinity)}},
		{"out-of-core", []repro.Option{repro.WithOutOfCore(spill, 0)}},
	}
	for _, b := range backends {
		t.Run(b.name, func(t *testing.T) {
			check := testgraph.NoLeaks(t, nil, spill) // the out-of-core run's spill files must be gone after the abort
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			var st repro.Stats
			var emitted int64
			opts := append(append([]repro.Option{}, b.opts...),
				repro.WithBounds(3, 0), repro.WithStats(&st))
			n, err := repro.NewEnumerator(opts...).Run(ctx, g,
				repro.ReporterFunc(func(c repro.Clique) {
					emitted++
					if emitted == 5 {
						cancel() // cancel from inside the run, mid-level
					}
				}))
			if err == nil {
				t.Fatal("run completed despite cancellation")
			}
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("error %v does not wrap context.Canceled", err)
			}
			if emitted < 5 {
				t.Fatalf("canceled after %d emissions, want >= 5", emitted)
			}
			if n > emitted {
				t.Errorf("reported count %d exceeds emissions seen %d", n, emitted)
			}
			if st.Elapsed <= 0 {
				t.Error("partial stats missing Elapsed")
			}
			check()
		})
	}
}

// TestCancellationDuringSeed cancels runs inside their k-clique seed.  At
// Init_K 9 this graph's seed is a few hundred milliseconds of search (at
// one worker) that never reaches a level, so no level loop check can see
// the cancellation: the search itself must, and the run must return
// within 50 ms of it with the context's error, the governor back where
// it started and no goroutine left behind.
func TestCancellationDuringSeed(t *testing.T) {
	const deadline, latency = 5 * time.Millisecond, 50 * time.Millisecond
	g := graph.PlantedGraph(rand.New(rand.NewSource(1)), 300, []graph.PlantedCliqueSpec{{Size: 16}}, 20000)
	for _, workers := range []int{1, 2} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			gov := membudget.New(0)
			check := testgraph.NoLeaks(t, gov)
			ctx, cancel := context.WithTimeout(context.Background(), deadline)
			defer cancel()
			start := time.Now()
			_, err := repro.NewEnumerator(repro.WithBounds(9, 9), repro.WithWorkers(workers),
				repro.WithGovernor(gov)).Run(ctx, g, nil)
			took := time.Since(start)
			if err == nil {
				t.Fatalf("run completed in %v despite the %v deadline", took, deadline)
			}
			if !errors.Is(err, ctx.Err()) {
				t.Fatalf("error %v does not wrap %v", err, ctx.Err())
			}
			if took > deadline+latency {
				t.Errorf("run returned %v after its start, want within %v of the %v deadline", took, latency, deadline)
			}
			check()
		})
	}
}

// TestCliquesEarlyBreakCancelsRun breaks out of the iterator and checks
// the producer goroutine unwinds (and spill files vanish).
func TestCliquesEarlyBreakCancelsRun(t *testing.T) {
	g := testGraph(5, 200, 0.25)
	for _, b := range []struct {
		name string
		opts []repro.Option
	}{
		{"sequential", nil},
		{"parallel", []repro.Option{repro.WithWorkers(3)}},
		{"out-of-core", []repro.Option{repro.WithOutOfCore(t.TempDir(), 0)}},
	} {
		t.Run(b.name, func(t *testing.T) {
			check := testgraph.NoLeaks(t, nil)
			e := repro.NewEnumerator(append(b.opts, repro.WithBounds(3, 0))...)
			seen := 0
			for c, err := range e.Cliques(context.Background(), g) {
				if err != nil {
					t.Fatalf("unexpected iterator error: %v", err)
				}
				_ = c
				if seen++; seen == 3 {
					break
				}
			}
			if seen != 3 {
				t.Fatalf("saw %d cliques before break, want 3", seen)
			}
			check()
		})
	}
}

// TestCliquesIteratorSurfacesErrors: a canceled parent context arrives as
// the iterator's final yield.
func TestCliquesIteratorSurfacesErrors(t *testing.T) {
	g := testGraph(11, 200, 0.25)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var finalErr error
	n := 0
	for c, err := range repro.NewEnumerator(repro.WithBounds(3, 0)).Cliques(ctx, g) {
		if err != nil {
			finalErr = err
			break
		}
		_ = c
		if n++; n == 2 {
			cancel()
		}
	}
	if finalErr == nil {
		t.Fatal("iterator never surfaced the cancellation error")
	}
	if !errors.Is(finalErr, context.Canceled) {
		t.Fatalf("iterator error %v does not wrap context.Canceled", finalErr)
	}
}

// TestConfigErrors: invalid option combinations fail fast with a
// descriptive error, not mid-run.
func TestConfigErrors(t *testing.T) {
	g := repro.NewGraph(4)
	cases := []struct {
		name string
		opts []repro.Option
	}{
		{"inverted bounds", []repro.Option{repro.WithBounds(5, 3)}},
		{"zero lo", []repro.Option{repro.WithBounds(-1, 0)}},
		{"negative workers", []repro.Option{repro.WithWorkers(-2)}},
		{"ooc+stored-bitmaps", []repro.Option{repro.WithOutOfCore(t.TempDir(), 0), repro.WithStoredBitmaps()}},
		{"negative-memory-budget", []repro.Option{repro.WithMemoryBudget(-1)}},
		{"spillover-without-dir", []repro.Option{repro.WithSpillover(""), repro.WithMemoryBudget(1 << 20)}},
		{"spillover-without-budget", []repro.Option{repro.WithSpillover(t.TempDir())}},
		{"resume+spillover", []repro.Option{repro.WithResume(t.TempDir()), repro.WithSpillover(t.TempDir()), repro.WithMemoryBudget(1 << 20)}},
		{"resume+memory-budget", []repro.Option{repro.WithResume(t.TempDir()), repro.WithMemoryBudget(1 << 20)}},
		{"hybrid+checkpoint", []repro.Option{repro.WithOutOfCore(t.TempDir(), 0, repro.OOCCheckpoint()),
			repro.WithMemoryBudget(1 << 20)}},
		{"distributed-zero-workers", []repro.Option{repro.WithDistributed(0, t.TempDir())}},
		{"distributed-negative-workers", []repro.Option{repro.WithDistributed(-1, t.TempDir())}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if _, err := repro.NewEnumerator(c.opts...).Run(context.Background(), g, nil); err == nil {
				t.Fatal("want configuration error, got nil")
			}
			for range repro.NewEnumerator(c.opts...).Cliques(context.Background(), g) {
				// Must yield exactly one (nil, err) pair; reaching a
				// clique would be a bug on a config this broken.
				break
			}
		})
	}
	// Paracliques takes its glom factor as an argument; (0,1] is the
	// only range, and NaN is outside it.
	for _, glom := range []float64{0, -0.5, 1.5, math.NaN()} {
		t.Run(fmt.Sprintf("paracliques-glom-%v", glom), func(t *testing.T) {
			if _, err := repro.NewEnumerator().Paracliques(context.Background(), g, glom); err == nil {
				t.Fatal("want configuration error, got nil")
			}
		})
	}
}

// TestStatsAcrossBackends: WithStats is filled consistently by all
// backends, and the enumerator is reusable run to run.
func TestStatsAcrossBackends(t *testing.T) {
	g := testGraph(2, 70, 0.15)
	var want int64
	{
		var st repro.Stats
		e := repro.NewEnumerator(repro.WithBounds(3, 0), repro.WithStats(&st))
		if _, err := e.Run(context.Background(), g, nil); err != nil {
			t.Fatal(err)
		}
		want = st.MaximalCliques
		if want == 0 || st.Backend != "sequential" || len(st.Levels) == 0 || st.PeakBytes == 0 {
			t.Fatalf("sequential stats incomplete: %+v", st)
		}
		// Reuse the same enumerator: stats reset per run.
		if _, err := e.Run(context.Background(), g, nil); err != nil {
			t.Fatal(err)
		}
		if st.MaximalCliques != want {
			t.Fatalf("second run found %d cliques, first %d", st.MaximalCliques, want)
		}
	}
	{
		var st repro.Stats
		e := repro.NewEnumerator(repro.WithBounds(3, 0), repro.WithWorkers(3), repro.WithStats(&st))
		if _, err := e.Run(context.Background(), g, nil); err != nil {
			t.Fatal(err)
		}
		if st.Backend != "parallel" || st.MaximalCliques != want || len(st.WorkerBusy) != 3 {
			t.Fatalf("parallel stats incomplete: %+v", st)
		}
	}
	{
		var st repro.Stats
		e := repro.NewEnumerator(repro.WithBounds(3, 0),
			repro.WithOutOfCore(t.TempDir(), 0), repro.WithStats(&st))
		if _, err := e.Run(context.Background(), g, nil); err != nil {
			t.Fatal(err)
		}
		if st.Backend != "out-of-core" || st.MaximalCliques != want || st.SpillBytesWritten == 0 {
			t.Fatalf("out-of-core stats incomplete: %+v", st)
		}
	}
}

// TestLevelStatsAgreeAcrossInCoreEngines: every in-core configuration —
// sequential, the pool at 2 and 4 workers under both strategies, and the
// hybrid backend with a budget it never reaches — runs the same level
// loop, so the per-level record and the totals must be identical, not
// merely compatible.  Both seeding paths are covered (edges, k-cliques).
func TestLevelStatsAgreeAcrossInCoreEngines(t *testing.T) {
	engines := []struct {
		name string
		opts []repro.Option
	}{
		{"sequential", nil},
		{"2w-contiguous", []repro.Option{repro.WithWorkers(2), repro.WithStrategy(repro.Contiguous)}},
		{"2w-affinity", []repro.Option{repro.WithWorkers(2), repro.WithStrategy(repro.Affinity)}},
		{"4w-contiguous", []repro.Option{repro.WithWorkers(4), repro.WithStrategy(repro.Contiguous)}},
		{"4w-affinity", []repro.Option{repro.WithWorkers(4), repro.WithStrategy(repro.Affinity)}},
		{"hybrid-ample", []repro.Option{repro.WithSpillover(t.TempDir()), repro.WithMemoryBudget(1 << 40)}},
		{"hybrid-ample-3w", []repro.Option{repro.WithSpillover(t.TempDir()), repro.WithMemoryBudget(1 << 40),
			repro.WithWorkers(3)}},
	}
	graphs := []*repro.Graph{testGraph(11, 70, 0.15), testGraph(12, 120, 0.2)}
	for gi, g := range graphs {
		for _, lo := range []int{2, 3, 4} {
			var want repro.Stats
			for ei, eng := range engines {
				var st repro.Stats
				opts := append(append([]repro.Option{}, eng.opts...),
					repro.WithBounds(lo, 0), repro.WithStats(&st))
				if _, err := repro.NewEnumerator(opts...).Run(context.Background(), g, nil); err != nil {
					t.Fatalf("graph %d lo %d %s: %v", gi, lo, eng.name, err)
				}
				if st.SpilledAtLevel != 0 {
					t.Fatalf("graph %d lo %d %s: spilled at %d under an ample budget", gi, lo, eng.name, st.SpilledAtLevel)
				}
				if ei == 0 {
					want = st
					if len(want.Levels) < 3 {
						t.Fatalf("graph %d lo %d: only %d levels; weak test", gi, lo, len(want.Levels))
					}
					continue
				}
				if st.MaximalCliques != want.MaximalCliques || st.MaxCliqueSize != want.MaxCliqueSize {
					t.Errorf("graph %d lo %d %s: totals %d/%d, sequential %d/%d", gi, lo, eng.name,
						st.MaximalCliques, st.MaxCliqueSize, want.MaximalCliques, want.MaxCliqueSize)
				}
				if len(st.Levels) != len(want.Levels) {
					t.Fatalf("graph %d lo %d %s: %d levels, sequential %d", gi, lo, eng.name,
						len(st.Levels), len(want.Levels))
				}
				for i, got := range st.Levels {
					w := untimed(want.Levels[i])
					got = untimed(got)
					got.Transfers = 0 // scheduling, not enumeration
					if got != w {
						t.Errorf("graph %d lo %d %s level %d: %+v, sequential %+v", gi, lo, eng.name, i, got, w)
					}
				}
			}
		}
	}
}

// TestOnLevelObserver: the per-level observer fires for every generation
// step on every backend (the facade form of cliquer -stats).
func TestOnLevelObserver(t *testing.T) {
	g := testGraph(6, 60, 0.15)
	for _, b := range []struct {
		name string
		opts []repro.Option
	}{
		{"sequential", nil},
		{"parallel", []repro.Option{repro.WithWorkers(2)}},
		{"out-of-core", []repro.Option{repro.WithOutOfCore(t.TempDir(), 0)}},
	} {
		t.Run(b.name, func(t *testing.T) {
			levels := 0
			var maximal int64
			opts := append(append([]repro.Option{}, b.opts...),
				repro.WithBounds(3, 0),
				repro.WithOnLevel(func(ls repro.LevelStats) {
					levels++
					maximal += ls.Maximal
				}))
			n, err := repro.NewEnumerator(opts...).Run(context.Background(), g, nil)
			if err != nil {
				t.Fatal(err)
			}
			if levels == 0 {
				t.Fatal("observer never fired")
			}
			// Level records cover the generation steps only; with lo=3
			// the in-core seed phase reports maximal 3-cliques outside
			// any level, so the level sum is a lower bound on the count.
			if maximal > n {
				t.Fatalf("levels account for %d maximal cliques, run delivered only %d", maximal, n)
			}
		})
	}
}

// TestOOCLevelMaximalRespectsLowerBound: with a lower bound above 3, the
// out-of-core backend seeds at the bound like the in-core ones — its
// first level starts there — and the seed phase's cliques plus the
// per-level Maximal count exactly the delivered cliques.
func TestOOCLevelMaximalRespectsLowerBound(t *testing.T) {
	const lo = 5
	g := testGraph(6, 60, 0.15)
	var st repro.Stats
	var seeded int64
	n, err := repro.NewEnumerator(
		repro.WithBounds(lo, 0),
		repro.WithOutOfCore(t.TempDir(), 0),
		repro.WithStats(&st),
	).Run(context.Background(), g, repro.ReporterFunc(func(c repro.Clique) {
		if len(c) < lo {
			t.Errorf("delivered %v below the lower bound", c)
		}
		if len(c) == lo {
			seeded++
		}
	}))
	if err != nil {
		t.Fatal(err)
	}
	if n == 0 || len(st.Levels) == 0 {
		t.Fatal("no cliques of size >= 5; broaden the test graph")
	}
	if st.Levels[0].FromK != lo {
		t.Errorf("first level runs from %d, want the seed size %d", st.Levels[0].FromK, lo)
	}
	sum := seeded
	for _, ls := range st.Levels {
		sum += ls.Maximal
	}
	if sum != n {
		t.Fatalf("seed phase + levels count %d maximal cliques, run delivered %d", sum, n)
	}
}

// TestStatsOneFold pins that a run's struct and its events cannot
// disagree, on every regime: the WithOnLevel stream is Stats.Levels
// element for element, and the clique and scheduling totals are what a
// reader recomputes from Stats.Levels plus the seed-phase count (the
// delivered cliques no level generates: those no larger than the first
// level's FromK).
func TestStatsOneFold(t *testing.T) {
	if testing.Short() {
		t.Skip("the distributed row spawns worker processes")
	}
	g := testGraph(21, 90, 0.18)
	tight := g.Bytes() + 8 // the first sealed block trips it
	for _, c := range []struct {
		name   string
		lo     int
		opts   []repro.Option
		spills bool
	}{
		{name: "sequential", lo: 3},
		{name: "sequential-edges", lo: 2},
		{name: "pool-2w-contiguous", lo: 3, opts: []repro.Option{repro.WithWorkers(2), repro.WithStrategy(repro.Contiguous)}},
		{name: "pool-2w-affinity", lo: 4, opts: []repro.Option{repro.WithWorkers(2), repro.WithStrategy(repro.Affinity)}},
		{name: "hybrid-spills", lo: 3, spills: true,
			opts: []repro.Option{repro.WithSpillover(t.TempDir()), repro.WithMemoryBudget(tight)}},
		{name: "hybrid-2w-spills", lo: 3, spills: true,
			opts: []repro.Option{repro.WithSpillover(t.TempDir()), repro.WithMemoryBudget(tight), repro.WithWorkers(2)}},
		{name: "out-of-core-lo3", lo: 3, opts: []repro.Option{repro.WithOutOfCore(t.TempDir(), 0)}},
		{name: "out-of-core-lo4", lo: 4, opts: []repro.Option{repro.WithOutOfCore(t.TempDir(), 0, repro.OOCWorkers(2))}},
		{name: "distributed-2w", lo: 3, opts: []repro.Option{repro.WithDistributed(2, t.TempDir(), repro.DistShardBytes(512))}},
	} {
		t.Run(c.name, func(t *testing.T) {
			var st repro.Stats
			var events []repro.LevelStats
			var sizes []int
			opts := append(append([]repro.Option{}, c.opts...), repro.WithBounds(c.lo, 0), repro.WithStats(&st),
				repro.WithOnLevel(func(ls repro.LevelStats) { events = append(events, ls) }))
			n, err := repro.NewEnumerator(opts...).Run(context.Background(), g,
				repro.ReporterFunc(func(c repro.Clique) { sizes = append(sizes, len(c)) }))
			if err != nil {
				t.Fatal(err)
			}
			if c.spills != (st.SpilledAtLevel > 0) {
				t.Fatalf("SpilledAtLevel = %d, want spilled = %v", st.SpilledAtLevel, c.spills)
			}
			if len(events) < 3 || len(sizes) == 0 {
				t.Fatalf("weak fixture: %d levels, %d cliques", len(events), len(sizes))
			}
			if !slices.Equal(events, st.Levels) {
				t.Errorf("WithOnLevel stream and Stats.Levels differ:\n%+v\n%+v", events, st.Levels)
			}
			var total int64
			var maxSize, transfers int
			for _, size := range sizes {
				if size <= st.Levels[0].FromK {
					total++ // seed phase
					maxSize = max(maxSize, size)
				}
			}
			for _, ls := range st.Levels {
				total += ls.Maximal
				transfers += ls.Transfers
				if ls.Maximal > 0 {
					maxSize = max(maxSize, ls.FromK+1)
				}
			}
			if st.MaximalCliques != total || n != total || total != int64(len(sizes)) {
				t.Errorf("MaximalCliques = %d, Run returned %d, %d delivered; Levels + seed phase give %d",
					st.MaximalCliques, n, len(sizes), total)
			}
			if st.MaxCliqueSize != maxSize || maxSize != slices.Max(sizes) {
				t.Errorf("MaxCliqueSize = %d, largest delivered %d; Levels + seed phase give %d",
					st.MaxCliqueSize, slices.Max(sizes), maxSize)
			}
			if st.Transfers != transfers {
				t.Errorf("Transfers = %d, Levels sum to %d", st.Transfers, transfers)
			}
			// WorkerBusy is per worker exactly where a pool engine ran a level.
			pooled := strings.Contains(st.Backend, "parallel")
			if pooled != (len(st.WorkerBusy) == 2) || (!pooled && st.WorkerBusy != nil) {
				t.Errorf("backend %s: WorkerBusy = %v", st.Backend, st.WorkerBusy)
			}
		})
	}
}

// TestParacliquesComposesWithBounds: the facade's paraclique entry uses
// the enumerator's lower bound as the minimum seed size and honors
// cancellation.
func TestParacliquesComposesWithBounds(t *testing.T) {
	g := testGraph(4, 60, 0.1)
	ctx := context.Background()
	loose, err := repro.NewEnumerator().Paracliques(ctx, g, 0.9)
	if err != nil {
		t.Fatal(err)
	}
	tight, err := repro.NewEnumerator(repro.WithBounds(5, 0)).Paracliques(ctx, g, 0.9)
	if err != nil {
		t.Fatal(err)
	}
	if len(tight) > len(loose) {
		t.Fatalf("lo=5 found %d paracliques, lo=3 only %d", len(tight), len(loose))
	}
	for _, p := range tight {
		if p.CoreSize < 5 {
			t.Fatalf("paraclique core %d below the WithBounds lower bound 5", p.CoreSize)
		}
	}
	canceled, cancel := context.WithCancel(ctx)
	cancel()
	if _, err := repro.NewEnumerator().Paracliques(canceled, g, 0.9); !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-canceled Paracliques error = %v, want context.Canceled", err)
	}
}

// TestFacadeGraphIO round-trips both promoted interchange formats.
func TestFacadeGraphIO(t *testing.T) {
	g := testGraph(10, 30, 0.2)
	dir := t.TempDir()
	for _, f := range []struct {
		name  string
		write func(*os.File, *repro.Graph) error
		read  func(*os.File) (*repro.Graph, error)
	}{
		{"edgelist", func(w *os.File, g *repro.Graph) error { return repro.WriteEdgeList(w, g) },
			func(r *os.File) (*repro.Graph, error) { return repro.ReadEdgeList(r) }},
		{"dimacs", func(w *os.File, g *repro.Graph) error { return repro.WriteDIMACS(w, g) },
			func(r *os.File) (*repro.Graph, error) { return repro.ReadDIMACS(r) }},
	} {
		path := filepath.Join(dir, f.name)
		w, err := os.Create(path)
		if err != nil {
			t.Fatal(err)
		}
		if err := f.write(w, g); err != nil {
			t.Fatal(err)
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		r, err := os.Open(path)
		if err != nil {
			t.Fatal(err)
		}
		g2, err := f.read(r)
		r.Close()
		if err != nil {
			t.Fatalf("%s: %v", f.name, err)
		}
		if g2.N() != g.N() || g2.M() != g.M() {
			t.Fatalf("%s round-trip: %d/%d vertices, %d/%d edges",
				f.name, g2.N(), g.N(), g2.M(), g.M())
		}
	}
}

// TestExpressionPipeline drives the promoted microarray entry points into
// the enumerator — the paper's primary workflow through the facade only.
func TestExpressionPipeline(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	mat := repro.SynthesizeExpression(rng, repro.SyntheticConfig{
		Genes:      80,
		Conditions: 40,
		Modules:    []repro.ModuleSpec{{Genes: []int{0, 1, 2, 3, 4, 5}, Signal: 6}},
	})
	mat.Normalize()
	th := repro.CorrelationThreshold(mat, repro.SpearmanRank, 120)
	g := repro.CorrelationGraph(mat, repro.SpearmanRank, th)
	if g.N() != 80 {
		t.Fatalf("correlation graph has %d vertices", g.N())
	}
	found := false
	for c, err := range repro.NewEnumerator(repro.WithBounds(4, 0)).Cliques(context.Background(), g) {
		if err != nil {
			t.Fatal(err)
		}
		inModule := 0
		for _, v := range c {
			if v < 6 {
				inModule++
			}
		}
		if inModule >= 4 {
			found = true
		}
	}
	if !found {
		t.Fatal("planted co-expression module not recovered as a clique")
	}
}

// TestResumeAfterKill is the facade's checkpoint/resume acceptance
// property: a checkpointed out-of-core run killed mid-enumeration is
// continued by WithResume, the combined stream reproduces the
// uninterrupted run exactly, and the spill statistics merge across the
// checkpoint boundary.
func TestResumeAfterKill(t *testing.T) {
	g := testGraph(3, 120, 0.2)
	dir := t.TempDir()

	// Uninterrupted reference run (plain out-of-core).
	var full repro.Stats
	want := stream(t, repro.NewEnumerator(repro.WithBounds(3, 0),
		repro.WithOutOfCore(t.TempDir(), 0),
		repro.WithStats(&full)), g)
	// The seed reports the maximal 3-cliques before the first checkpoint
	// commits; the levels deliver the rest.
	seeded := 0
	for seeded < len(want) && strings.Count(want[seeded], ",") == 2 {
		seeded++
	}
	if len(want)-seeded < 30 {
		t.Fatalf("only %d cliques from the levels; the kill point needs a longer run", len(want)-seeded)
	}

	// Checkpointed run, killed from inside the reporter mid-level.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var killed []string
	_, err := repro.NewEnumerator(repro.WithBounds(3, 0),
		repro.WithOutOfCore(dir, 0, repro.OOCCheckpoint()),
	).Run(ctx, g, repro.ReporterFunc(func(c repro.Clique) {
		killed = append(killed, c.Key())
		if len(killed) == seeded+(len(want)-seeded)/2 {
			cancel()
		}
	}))
	if err == nil {
		t.Fatal("checkpointed run completed despite the kill")
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("kill error %v does not wrap context.Canceled", err)
	}
	for i, k := range killed {
		if k != want[i] {
			t.Fatalf("killed run diverged from the reference at %d", i)
		}
	}

	// Resume and finish.
	var st repro.Stats
	var resumed []string
	n, err := repro.NewEnumerator(repro.WithBounds(3, 0),
		repro.WithResume(dir), repro.WithStats(&st),
	).Run(context.Background(), g, repro.ReporterFunc(func(c repro.Clique) {
		resumed = append(resumed, c.Key())
	}))
	if err != nil {
		t.Fatalf("resume: %v", err)
	}
	if !st.Resumed {
		t.Error("Stats.Resumed not set on a resumed run")
	}
	if int(n) != len(resumed) || len(resumed) == 0 {
		t.Fatalf("resume delivered %d cliques, reported %d", len(resumed), n)
	}
	// The resumed stream re-runs the interrupted level from its start,
	// so it is exactly a contiguous suffix of the uninterrupted stream.
	off := len(want) - len(resumed)
	if off < 0 {
		t.Fatalf("resume delivered %d cliques, more than the full run's %d", len(resumed), len(want))
	}
	for i, k := range resumed {
		if k != want[off+i] {
			t.Fatalf("resumed stream diverges at %d: got {%s}, want {%s}", i, k, want[off+i])
		}
	}
	// Everything before the suffix was delivered (and checkpointed) by
	// the killed run.
	if off > len(killed) {
		t.Fatalf("resume starts at %d but the killed run only delivered %d cliques", off, len(killed))
	}
	// Cumulative spill accounting continues across the boundary: the
	// interrupted level's partial output was discarded and redone, so
	// the resumed run's final counters match the uninterrupted run's.
	if st.SpillBytesWritten != full.SpillBytesWritten ||
		st.SpillBytesRead != full.SpillBytesRead {
		t.Errorf("merged spill stats diverge from the uninterrupted run:\nresumed %+v\nfull    %+v", st, full)
	}
	// The completed run retires its checkpoint.
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		t.Errorf("leftover checkpoint entry after the resumed run completed: %s", e.Name())
	}
}

func ExampleClique_Clone() {
	c := repro.Clique{2, 5, 9}
	d := c.Clone()
	c[0] = 99
	fmt.Println(d)
	// Output: [2 5 9]
}

// untimed is a level record without its wall-clock fields, Elapsed and
// Wait, which differ from run to run: the one place a test comparing
// level records whole drops them.
func untimed(ls repro.LevelStats) repro.LevelStats {
	ls.Elapsed, ls.Wait = 0, 0
	return ls
}
