package hybrid_test

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/clique"
	"repro/internal/core"
	"repro/internal/enumcfg"
	"repro/internal/expt"
	"repro/internal/graph"
	"repro/internal/hybrid"
	"repro/internal/membudget"
	"repro/internal/ooc"
)

// testGraph plants overlapping modules in a random graph so every run
// has several generation levels to trip a budget inside.
func testGraph(seed int64, n int, p float64) *graph.Graph {
	rng := rand.New(rand.NewSource(seed))
	g := graph.RandomGNP(rng, n, p)
	graph.PlantClique(g, []int{0, 1, 2, 3, 4, 5, 6})
	graph.PlantClique(g, []int{4, 5, 6, 7, 8})
	graph.PlantClique(g, []int{n - 5, n - 4, n - 3, n - 2, n - 1})
	return g
}

func keys(cs []clique.Clique) []string {
	out := make([]string, len(cs))
	for i, c := range cs {
		out[i] = c.Key()
	}
	return out
}

func reference(t *testing.T, g graph.Interface, lo int) []string {
	t.Helper()
	col := &clique.Collector{}
	if _, err := hybrid.Enumerate(g, enumcfg.Config{Lo: lo}, core.Hooks{Reporter: col}); err != nil {
		t.Fatalf("reference: %v", err)
	}
	return keys(col.Cliques)
}

// TestSpilloverParity is the package's acceptance property: for any
// budget (never trips, trips mid-run, trips immediately), any worker
// count, and either seeding mode, the hybrid stream is byte-identical
// to the in-core reference.
func TestSpilloverParity(t *testing.T) {
	for _, seed := range []int64{1, 2, 3} {
		g := testGraph(seed, 80, 0.15)
		want := reference(t, g, 3)
		if len(want) == 0 {
			t.Fatalf("seed %d: empty reference", seed)
		}
		// The budgets cover never / late / early / immediate trips, the
		// mid-run ones cut from this graph's own unbudgeted peak so they
		// trip whatever the bitmap policy makes a level weigh.
		free := membudget.New(0)
		if _, err := hybrid.Enumerate(g, enumcfg.Config{Lo: 3}, core.Hooks{Gov: free}); err != nil {
			t.Fatal(err)
		}
		peak := free.Peak()
		for _, budget := range []int64{0, 1 << 30, peak / 2, peak / 4, 1} {
			for _, workers := range []int{1, 3} {
				gov := membudget.New(budget)
				col := &clique.Collector{}
				res, err := hybrid.Enumerate(g, enumcfg.Config{
					Lo:      3,
					Workers: workers,
					Dir:     t.TempDir(),
				}, core.Hooks{
					Gov:      gov,
					Reporter: col,
				})
				if err != nil {
					t.Fatalf("seed %d budget %d workers %d: %v", seed, budget, workers, err)
				}
				got := keys(col.Cliques)
				if len(got) != len(want) {
					t.Fatalf("seed %d budget %d workers %d: %d cliques, want %d (spilled at %d)",
						seed, budget, workers, len(got), len(want), res.SpilledAtLevel)
				}
				for i := range want {
					if got[i] != want[i] {
						t.Fatalf("seed %d budget %d workers %d: stream diverges at %d: got {%s} want {%s}",
							seed, budget, workers, i, got[i], want[i])
					}
				}
				if res.MaximalCliques != int64(len(want)) {
					t.Fatalf("Result.MaximalCliques = %d, want %d", res.MaximalCliques, len(want))
				}
				switch {
				case budget == 0 || budget == 1<<30:
					if res.SpilledAtLevel != 0 {
						t.Errorf("budget %d spilled at level %d; should have stayed in core",
							budget, res.SpilledAtLevel)
					}
				default:
					if res.SpilledAtLevel == 0 {
						t.Errorf("budget %d never spilled; the trip point is untested", budget)
					}
					// An immediate trip drains the whole run through the
					// disk engine, so bytes must have moved; later trips
					// may drain an empty final level.
					if budget == 1 && res.OOC.BytesWritten == 0 {
						t.Errorf("budget %d spilled but moved no bytes", budget)
					}
				}
			}
		}
	}
}

// TestSpilloverWithSeededBounds exercises the Lo >= 3 k-clique seeding
// and an upper bound across the spill boundary.
func TestSpilloverWithSeededBounds(t *testing.T) {
	g := testGraph(7, 90, 0.18)
	want := reference(t, g, 4)
	if len(want) == 0 {
		t.Skip("no size >= 4 cliques on this seed")
	}
	for _, workers := range []int{1, 2} {
		col := &clique.Collector{}
		res, err := hybrid.Enumerate(g, enumcfg.Config{
			Lo:      4,
			Workers: workers,
			Dir:     t.TempDir(),
		}, core.Hooks{
			Gov:      membudget.New(16 << 10),
			Reporter: col,
		})
		if err != nil {
			t.Fatalf("workers %d: %v", workers, err)
		}
		got := keys(col.Cliques)
		if len(got) != len(want) {
			t.Fatalf("workers %d: %d cliques, want %d (spilled at %d)",
				workers, len(got), len(want), res.SpilledAtLevel)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("workers %d: diverges at %d", workers, i)
			}
		}
	}
}

// TestPeakStaysNearBudget pins the governor guarantee: a spilled run's
// peak cannot exceed the budget by more than one level's drain
// allowance — the level resident when the trip was detected, plus the
// spill machinery's bounded I/O buffers.  The graph is sized so the
// unconstrained peak (a few MB) dwarfs that allowance, making the bound
// meaningful: an implementation that kept accumulating candidates after
// the trip would blow straight through it.
func TestPeakStaysNearBudget(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	g := graph.RandomGNP(rng, 300, 0.3)
	// Unconstrained run: measure the largest per-step resident bytes.
	var maxStep int64
	res, err := hybrid.Enumerate(g, enumcfg.Config{Lo: 3}, core.Hooks{OnLevel: func(ls core.LevelStats) {
		if r := ls.Bytes + ls.NextBytes; r > maxStep {
			maxStep = r
		}
	}})
	if err != nil {
		t.Fatal(err)
	}
	if res.PeakBytes < 1<<20 {
		t.Fatalf("reference peak %d too small to make the bound meaningful", res.PeakBytes)
	}
	budget := res.PeakBytes / 4
	for _, workers := range []int{1, 4} {
		gov := membudget.New(budget)
		out, err := hybrid.Enumerate(g, enumcfg.Config{Lo: 3, Workers: workers, Dir: t.TempDir()}, core.Hooks{Gov: gov})
		if err != nil {
			t.Fatalf("workers %d: %v", workers, err)
		}
		if out.SpilledAtLevel == 0 {
			t.Fatalf("workers %d: budget %d (quarter of peak %d) did not trip",
				workers, budget, res.PeakBytes)
		}
		// Drain allowance: one resident level plus the disk engine's
		// in-flight buffers (a read window and a write buffer per worker,
		// 1 MiB hard cap each, and the blocks between them, which share
		// their headroom).
		allowance := maxStep + (2*int64(workers)+2)*(1<<20)
		if gov.Peak() > budget+allowance {
			t.Errorf("workers %d: governor peak %d exceeds budget %d + allowance %d",
				workers, gov.Peak(), budget, allowance)
		}
		if gov.Peak() >= res.PeakBytes {
			t.Errorf("workers %d: spilled peak %d not below the unconstrained peak %d",
				workers, gov.Peak(), res.PeakBytes)
		}
		if gov.Used() != 0 {
			t.Errorf("workers %d: %d bytes still charged after the run (leaked accounting)",
				workers, gov.Used())
		}
	}
}

// TestCancellationDuringSpill cancels from inside the reporter after the
// spill and checks the error and spill-dir cleanup behavior of the
// out-of-core continuation.
func TestCancellationDuringSpill(t *testing.T) {
	g := testGraph(9, 150, 0.22)
	want := reference(t, g, 3)
	if len(want) < 50 {
		t.Fatalf("only %d cliques; need a longer run", len(want))
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	seen := 0
	res, err := hybrid.Enumerate(g, enumcfg.Config{
		Ctx:     ctx,
		Lo:      3,
		Workers: 1,
		Dir:     t.TempDir(),
	}, core.Hooks{
		Gov: membudget.New(1), // immediate spill
		Reporter: clique.ReporterFunc(func(c clique.Clique) {
			seen++
			if seen == len(want)/2 {
				cancel()
			}
		}),
	})
	if err == nil {
		t.Fatal("run completed despite cancellation")
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("error %v does not wrap context.Canceled", err)
	}
	if res.SpilledAtLevel == 0 {
		t.Fatal("budget 1 did not spill before the cancel")
	}
	// Delivered prefix must match the reference stream.
	if seen < len(want)/2 {
		t.Fatalf("delivered %d cliques before cancel, want >= %d", seen, len(want)/2)
	}
}

// TestLedgerBalancedOnEveryLoopPath pins the governor contract of the
// shared level loop: whichever way a run ends — and on whichever engine
// — Used is back at its entry value.  The entry value is non-zero (a
// stand-in for the facade's graph charge), so an over-release would show
// as well as a leak.
func TestLedgerBalancedOnEveryLoopPath(t *testing.T) {
	g := testGraph(21, 220, 0.2)
	const entry = 12345
	const never = 1 << 40 // a budget the run cannot reach: arms the trip poll only

	type run struct {
		gov    *membudget.Governor
		cancel context.CancelFunc
		cfg    *enumcfg.Config
		hooks  *core.Hooks
		extra  int64 // bytes the scenario itself charged to force a trip
	}
	paths := []struct {
		name   string
		budget int64
		spill  bool         // give the run a spill Dir (trip policy: drain)
		arm    func(r *run) // install the scenario's hooks
		check  func(t *testing.T, workers int, res *hybrid.Result, err error)
	}{
		{name: "complete", budget: never,
			check: func(t *testing.T, _ int, _ *hybrid.Result, err error) {
				if err != nil {
					t.Fatal(err)
				}
			}},
		{name: "hi-cut", budget: never,
			arm: func(r *run) { r.cfg.Hi = 4 },
			check: func(t *testing.T, _ int, res *hybrid.Result, err error) {
				if err != nil || res.MaxCliqueSize > 4 {
					t.Fatalf("err %v, max size %d", err, res.MaxCliqueSize)
				}
			}},
		{name: "cancel-before-level", budget: never,
			arm: func(r *run) { r.hooks.OnLevel = func(core.LevelStats) { r.cancel() } },
			check: func(t *testing.T, _ int, _ *hybrid.Result, err error) {
				if !errors.Is(err, context.Canceled) || !strings.Contains(err.Error(), "before level") {
					t.Fatalf("err = %v", err)
				}
			}},
		{name: "cancel-during-level", budget: never,
			arm: func(r *run) {
				r.hooks.Reporter = clique.ReporterFunc(func(c clique.Clique) {
					if len(c) > 3 { // a level emission, not the seed phase's
						r.cancel()
					}
				})
			},
			check: func(t *testing.T, workers int, _ *hybrid.Result, err error) {
				if !errors.Is(err, context.Canceled) {
					t.Fatalf("err = %v", err)
				}
				// The sequential engine's poll points are deterministic; the
				// pool may finish the level before a worker looks.
				if workers == 1 && !strings.Contains(err.Error(), "during level") {
					t.Fatalf("sequential run was not stopped mid-level: %v", err)
				}
			}},
		{name: "trip-abort", budget: 64 << 10,
			check: func(t *testing.T, _ int, _ *hybrid.Result, err error) {
				if !errors.Is(err, core.ErrMemoryBudget) {
					t.Fatalf("err = %v", err)
				}
			}},
		{name: "trip-drain", budget: 64 << 10, spill: true,
			check: func(t *testing.T, _ int, res *hybrid.Result, err error) {
				if err != nil || res.SpilledAtLevel == 0 {
					t.Fatalf("err %v, spilled at %d", err, res.SpilledAtLevel)
				}
			}},
		// Past the drain: the run is canceled once the out-of-core engine
		// has joined a level of its own, with its joiners' scratch (prefix
		// memo included) and shard buffers charged.
		{name: "trip-drain-ooc-canceled", budget: 64 << 10, spill: true,
			arm: func(r *run) {
				spilled := 0
				r.hooks.OnLevel = func(ls core.LevelStats) {
					if ls.Spilled {
						if spilled++; spilled == 2 {
							r.cancel()
						}
					}
				}
			},
			check: func(t *testing.T, _ int, res *hybrid.Result, err error) {
				if !errors.Is(err, context.Canceled) || res.SpilledAtLevel == 0 || res.OOC.Levels == 0 {
					t.Fatalf("err %v, spilled at %d, %d out-of-core levels", err, res.SpilledAtLevel, res.OOC.Levels)
				}
			}},
		// A spill budget the drained level itself exceeds: the drain's
		// feed is cut mid-write with head and consumed level resident.
		{name: "trip-drain-spill-budget", budget: 64 << 10, spill: true,
			arm: func(r *run) { r.cfg.SpillBudget = 64 },
			check: func(t *testing.T, _ int, res *hybrid.Result, err error) {
				if !errors.Is(err, ooc.ErrSpillBudget) || res.OOC.Levels != 0 {
					t.Fatalf("err %v after %d out-of-core levels", err, res.OOC.Levels)
				}
			}},
		// The first emission pushes the governor over and cancels: the
		// sequential engine trips at the next run start and the drain
		// finds its context already dead with the whole head still
		// resident.
		{name: "trip-drain-canceled", budget: never, spill: true,
			arm: func(r *run) {
				r.hooks.Reporter = clique.ReporterFunc(func(c clique.Clique) {
					if len(c) > 3 && r.extra == 0 {
						r.extra = 2 * never
						r.gov.Charge(r.extra)
						r.cancel()
					}
				})
			},
			check: func(t *testing.T, workers int, res *hybrid.Result, err error) {
				if !errors.Is(err, context.Canceled) {
					t.Fatalf("err = %v", err)
				}
				if workers == 1 && res.SpilledAtLevel == 0 {
					t.Fatal("sequential run never reached the drain")
				}
			}},
	}
	for _, p := range paths {
		for _, workers := range []int{1, 3} {
			t.Run(fmt.Sprintf("%s/%dw", p.name, workers), func(t *testing.T) {
				ctx, cancel := context.WithCancel(context.Background())
				defer cancel()
				gov := membudget.New(entry + p.budget)
				gov.Charge(entry)
				cfg, hooks := enumcfg.Config{Ctx: ctx, Lo: 3, Workers: workers}, core.Hooks{Gov: gov}
				if p.spill {
					cfg.Dir = t.TempDir()
				}
				r := &run{gov: gov, cancel: cancel, cfg: &cfg, hooks: &hooks}
				if p.arm != nil {
					p.arm(r)
				}
				res, err := hybrid.Enumerate(g, cfg, hooks)
				p.check(t, workers, res, err)
				gov.Release(r.extra)
				if used := gov.Used(); used != entry {
					t.Errorf("governor Used = %d after the run, entry value %d", used, entry)
				}
			})
		}
	}
}

// TestNilReporterCollectsNoEmissions: a pooled run nobody listens to
// counts from the level records, so the pool never copies an emission
// into its merge window or charges one to the governor.  The fixture is
// the complete tripartite graph K(12,12,12) seeded from its edges: one
// level, 1728 triangles, every one maximal, nothing produced — and with
// stored bitmaps no memo row grows mid-level — so the ledger's only
// transient is the emission window, and the governor's peak is exactly
// what it holds at the level boundary unless emissions were charged.
func TestNilReporterCollectsNoEmissions(t *testing.T) {
	const parts, m = 3, 12
	g := graph.New(parts * m)
	for u := 0; u < parts*m; u++ {
		for v := u + 1; v < parts*m; v++ {
			if u/m != v/m {
				g.AddEdge(u, v)
			}
		}
	}
	run := func(rep clique.Reporter) (peak, atBoundary int64) {
		gov := membudget.New(0)
		res, err := hybrid.Enumerate(g, enumcfg.Config{Workers: 2, Mode: core.CNStore}, core.Hooks{Gov: gov, Reporter: rep,
			OnLevel: func(core.LevelStats) { atBoundary = max(atBoundary, gov.Used()) }})
		if err != nil {
			t.Fatal(err)
		}
		if res.MaximalCliques != m*m*m || res.MaxCliqueSize != 3 || len(res.Levels) != 1 {
			t.Fatalf("%d cliques, max size %d, %d levels; want %d triangles from one level",
				res.MaximalCliques, res.MaxCliqueSize, len(res.Levels), m*m*m)
		}
		if gov.Used() != 0 {
			t.Errorf("governor at %d after the run", gov.Used())
		}
		return gov.Peak(), atBoundary
	}
	if peak, atBoundary := run(nil); peak != atBoundary {
		t.Errorf("nil reporter: governor peak %d, %d at the level boundary: %d bytes of emissions were collected",
			peak, atBoundary, peak-atBoundary)
	}
	// The measure does see a window: a listening run must collect.
	if peak, atBoundary := run(&clique.Collector{}); peak <= atBoundary {
		t.Errorf("listening run: governor peak %d does not exceed the %d held at the level boundary", peak, atBoundary)
	}
}

// TestShardFilesPerLevel pins how many shard files a level costs: the
// shard target (ooc.DefaultShardTarget) asks for about two per worker of
// the level it reads, a level may produce up to about twice what it
// consumed, and every input shard's output starts files of its own — so
// no more than 4 per worker a level, the tripped step's rest and head
// included.  The run is the benchmark's hybrid-c75 shape (graph C at
// scale 0.75, seed 1, a quarter of the unbudgeted governor
// peak over the graph's own charge).  The same run pins the two peaks
// the disk path must leave alone: the in-core reference's, which sets
// the budget, and the one-worker spilled run's, which is the in-core
// trip's.  Both peaks carry the join's scratch at their step (n = 2 171,
// and every p0 group has at most 59 neighbours, so a local row is one
// word): the rank table, 4 x 2 171 = 8 684, N(p0), its rows' slots and
// a sub-list's tails as local ids, 3 x 4 x 59 = 708, the rows a group
// touched, at most 33 one-word rows, 264, CN(prefix+v) 8, and a one-word
// memo row per prefix vertex.  The reference peaks at step 10 -> 11
// (nine memo rows: 9 736 of scratch), which with the global join's
// 2 720 (two 34-word scratch bitmaps and eight memo rows) peaked at
// 5 012 880; the spilled run trips at step 6 -> 7 (five memo rows:
// 9 704), 1 264 868 beside the global join's 1 632.  The budget is passed
// inside the last run of the level's sixth block; the trip is polled
// where a run starts, at the seventh block's first record, with
// 1 267 016 charged, and the cut seals the head's open block: 5 924 bytes
// of that last run's output.
func TestShardFilesPerLevel(t *testing.T) {
	const refPeak, spilledPeak = 5019896, 1272940
	g := expt.Build(expt.SpecC.Scale(0.75), 1)
	entry := int64(g.Bytes()) // the facade's charge for the graph
	free := membudget.New(0)
	free.Charge(entry)
	defer free.Release(entry)
	if _, err := hybrid.Enumerate(g, enumcfg.Config{Lo: 3}, core.Hooks{Gov: free}); err != nil {
		t.Fatal(err)
	}
	if free.Peak() != refPeak {
		t.Errorf("in-core reference peaks at %d, want %d", free.Peak(), refPeak)
	}
	for _, workers := range []int{1, 2, 4} {
		gov := membudget.New(free.Peak() / 4)
		gov.Charge(entry)
		res, err := hybrid.Enumerate(g, enumcfg.Config{Lo: 3, Workers: workers, Dir: t.TempDir()}, core.Hooks{Gov: gov})
		gov.Release(entry)
		if err != nil {
			t.Fatal(err)
		}
		levels := int64(res.OOC.Levels + 1) // the cut step's rest is written too
		if res.SpilledAtLevel == 0 || res.OOC.Shards > levels*int64(4*workers) {
			t.Errorf("%d workers: %d shard files for %d levels on disk, spilled at %d; want at most %d a level",
				workers, res.OOC.Shards, levels, res.SpilledAtLevel, 4*workers)
		}
		if workers == 1 && gov.Peak() != spilledPeak {
			t.Errorf("1 worker: spilled run peaks at %d, want %d", gov.Peak(), spilledPeak)
		}
		t.Logf("%d workers: %d shard files, %d levels on disk", workers, res.OOC.Shards, levels)
	}
}
