package repro_test

import (
	"context"
	"errors"
	"os"
	"slices"
	"strings"
	"testing"

	"repro"
	"repro/internal/clique"
	"repro/internal/core"
	"repro/internal/enumcfg"
	"repro/internal/expt"
	"repro/internal/hybrid"
	"repro/internal/membudget"
)

// TestHybridSpilloverParityAcrossRepresentations is the PR's acceptance
// property at the facade: a run that trips the memory governor
// mid-enumeration produces the byte-identical ordered clique stream of
// an unconstrained in-core run, for sequential and parallel starts,
// across all three graph representations.
func TestHybridSpilloverParityAcrossRepresentations(t *testing.T) {
	for seed := int64(1); seed <= 2; seed++ {
		g := testGraph(seed, 80, 0.15)
		want := stream(t, repro.NewEnumerator(repro.WithBounds(3, 0)), g)
		if len(want) == 0 {
			t.Fatalf("seed %d: no cliques from the reference run", seed)
		}
		for _, rep := range []repro.Representation{repro.Dense, repro.CSR, repro.Compressed} {
			// The governor charges the representation's adjacency bytes
			// first, so the trip points are budgeted on top of them: a half,
			// a quarter and an eighth of what this graph's unbudgeted run
			// peaks at above them — mid-run to almost immediate, whatever a
			// level weighs.
			conv, err := repro.ConvertGraph(g, rep)
			if err != nil {
				t.Fatal(err)
			}
			var free repro.Stats
			stream(t, repro.NewEnumerator(repro.WithBounds(3, 0),
				repro.WithGraphRepresentation(rep), repro.WithStats(&free)), g)
			above := free.PeakBytes - conv.Bytes()
			for _, workers := range []int{1, 3} {
				for _, div := range []int64{2, 4, 8} {
					var st repro.Stats
					opts := []repro.Option{
						repro.WithBounds(3, 0),
						repro.WithGraphRepresentation(rep),
						repro.WithSpillover(t.TempDir()),
						repro.WithMemoryBudget(conv.Bytes() + above/div),
						repro.WithStats(&st),
					}
					if workers > 1 {
						opts = append(opts, repro.WithWorkers(workers))
					}
					got := stream(t, repro.NewEnumerator(opts...), g)
					if len(got) != len(want) {
						t.Fatalf("seed %d rep %s workers %d budget P/%d: %d cliques, want %d (backend %s)",
							seed, rep, workers, div, len(got), len(want), st.Backend)
					}
					for i := range want {
						if got[i] != want[i] {
							t.Fatalf("seed %d rep %s workers %d budget P/%d: stream diverges at %d",
								seed, rep, workers, div, i)
						}
					}
					if st.SpilledAtLevel == 0 {
						t.Errorf("seed %d rep %s workers %d budget P/%d: never spilled (backend %s, peak %d of %d)",
							seed, rep, workers, div, st.Backend, st.PeakBytes, free.PeakBytes)
					}
					if !strings.HasPrefix(st.Backend, "hybrid(") || !strings.Contains(st.Backend, "out-of-core@") {
						t.Errorf("spilled run's backend = %q", st.Backend)
					}
					if st.PeakBytes == 0 {
						t.Errorf("hybrid run reported no PeakBytes")
					}
				}
			}
		}
	}
}

// footprintSpec is the fixture of the two footprint tests below: graph C
// at scale 0.6 (cliqued-mix's input), whose candidate levels weigh
// several times its adjacency.
var footprintSpec = expt.SpecC.Scale(0.6)

// joinWindow replays g's enumeration in core and returns the most one
// sub-list join charges for its emissions: the 8 bytes a vertex the pool
// holds for a join's maximal cliques until their in-order release.
func joinWindow(g repro.GraphInterface, lo int) (window int64) {
	b := core.NewBuilder(g)
	lvl, _, _ := core.Seed(context.Background(), g, lo, 1, false, nil, nil)
	var emitted int64
	r := clique.ReporterFunc(func(c clique.Clique) { emitted += 8 * int64(len(c)) })
	for len(lvl.Sub) > 0 {
		b.Reset()
		for s := range lvl.All() {
			emitted = 0
			b.ProcessSubList(s, r)
			window = max(window, emitted)
		}
		lvl = b.Level(lvl.K + 1)
	}
	return window
}

// TestSpillStaysInsideBudget pins what a budget means once a run spills:
// the governor's peak is the budget plus the in-core engine's trip
// granularity plus the minimum the spill writer cannot work without —
// never the level-sized I/O buffers the spill path used to take on top of
// it.  The run is driven below the facade so the test owns the governor:
// charged with the adjacency bytes first, as the facade does, and checked
// back at exactly that when the run is over.  Budgets sit a half, a
// quarter and an eighth of the way from there to the unbudgeted peak.
//
// The bounds, from where the engines charge and poll:
//
//   - 1 worker: budget + one block + 4 KiB + one bitmap.  The level store
//     is charged a block at a time, when the block is sealed
//     (core.MaxBlockBytes, 32 KiB, at most), and the builder polls before
//     every join, so Used passes the budget by at most one block.  The
//     trip hands the step to the disk loop as data (ooc.Loop.RunCut): the
//     consumed blocks before the frontier are released at once; the rest
//     of the consumed level, then the head of the produced one, go
//     through one writer at the 4 KiB floor (the spill starts over
//     budget), each block released as the writer takes it.  No join runs
//     in memory after the trip — the disk loop joins the written rest like
//     any level — and its joiner's one bitmap takes the place of the
//     engine's scratch, released before the spill.
//   - W workers: budget + W·(one block + window) + bookkeeping + 4 KiB +
//     one bitmap.  Every pool worker polls before every join and may seal
//     a block and buffer one join's emissions (the window) before it
//     polls again; the pool's own per-block arrays are on the ledger too
//     (core.LevelStats.Held), which the in-core steps of these rows
//     assert: reported, non-zero, and really part of Used.
//
// After the trip both levels are off the ledger, and a worker's read
// window, block queues and write buffer share the headroom each step
// starts with (ooc bufShare, shapeFor), so the out-of-core phase adds
// nothing on top: from the spilled step's record on, the peak of a
// one-worker run grows only inside the budget.  (With more, which worker
// grows which memo row mid-level, and how far a join's output runs past
// its batch, follow the schedule; the bound above covers them.)
func TestSpillStaysInsideBudget(t *testing.T) {
	const minBuf = 4 << 10
	for _, rep := range []repro.Representation{repro.Dense, repro.CSR, repro.Compressed} {
		g, err := repro.ConvertGraph(expt.Build(footprintSpec, 1), rep)
		if err != nil {
			t.Fatal(err)
		}
		entry := g.Bytes()
		window := joinWindow(g, 3)
		bitmap := int64((g.N() + 63) / 64 * 8)
		floor := minBuf + bitmap
		var held int64    // the most bookkeeping the pool reported in one run
		var atDrain int64 // the governor's peak when the drained step was observed
		run := func(budget int64, workers int) (*hybrid.Result, *membudget.Governor, []string) {
			t.Helper()
			gov := membudget.New(budget)
			gov.Charge(entry)
			dir := t.TempDir()
			var keys []string
			held, atDrain = 0, 0
			res, err := hybrid.Enumerate(g, enumcfg.Config{Lo: 3, Workers: workers, Dir: dir}, core.Hooks{
				Gov:      gov,
				Reporter: clique.ReporterFunc(func(c clique.Clique) { keys = append(keys, c.Key()) }),
				OnLevel: func(st core.LevelStats) {
					if st.Spilled && atDrain == 0 {
						atDrain = gov.Peak()
					}
					if workers == 1 || st.Spilled {
						return
					}
					// Both levels, the pool's arrays for them and at least
					// two scratch bitmaps a worker are resident right now.
					held = max(held, st.Held)
					if least := entry + st.Bytes + st.NextBytes + st.Held + int64(2*workers)*bitmap; st.Held <= 0 || gov.Used() < least {
						t.Errorf("%s budget %d workers %d level %d: pool reports %d bookkeeping bytes, governor holds %d, the step accounts for %d",
							rep, budget, workers, st.FromK, st.Held, gov.Used(), least)
					}
				},
			})
			if err != nil {
				t.Fatalf("%s budget %d workers %d: %v", rep, budget, workers, err)
			}
			if gov.Used() != entry {
				t.Errorf("%s budget %d workers %d: governor at %d after the run, entered at %d",
					rep, budget, workers, gov.Used(), entry)
			}
			if left, err := os.ReadDir(dir); err != nil || len(left) != 0 {
				t.Errorf("%s budget %d workers %d: spill directory not empty (%d entries, err %v)",
					rep, budget, workers, len(left), err)
			}
			return res, gov, keys
		}
		_, free, want := run(0, 1)
		above := free.Peak() - entry
		for _, workers := range []int{1, 3} {
			for _, div := range []int64{2, 4, 8} {
				budget := entry + above/div
				res, gov, got := run(budget, workers)
				if res.SpilledAtLevel == 0 {
					t.Errorf("%s P/%d workers %d: never spilled", rep, div, workers)
				}
				if !slices.Equal(got, want) {
					t.Errorf("%s P/%d workers %d: stream differs from the unbudgeted run's", rep, div, workers)
				}
				allow := core.MaxBlockBytes + floor
				if workers > 1 {
					allow = int64(workers)*(core.MaxBlockBytes+window) + held + floor
				}
				if over := gov.Peak() - budget; over > allow {
					t.Errorf("%s P/%d workers %d: peak %d is %d over the budget %d, allowed %d",
						rep, div, workers, gov.Peak(), over, budget, allow)
				}
				if workers == 1 && gov.Peak() > max(atDrain, budget) {
					t.Errorf("%s P/%d workers %d: the out-of-core phase took the peak from %d to %d, over the budget %d",
						rep, div, workers, atDrain, gov.Peak(), budget)
				}
			}
		}
	}
}

// TestDefaultFootprint: the zero-option run is the small one.  It peaks
// at exactly what the engine below the facade peaks at, streams the same
// bytes, and holds no more than a third of what the bitmaps alone of the
// paper's stored-bitmap policy would take at one level boundary: one
// ⌈n/64⌉-word bitmap per sub-list of the consumed and the produced level.
func TestDefaultFootprint(t *testing.T) {
	g := expt.Build(footprintSpec, 1)
	var def repro.Stats
	want := stream(t, repro.NewEnumerator(repro.WithBounds(3, 0), repro.WithStats(&def)), g)
	gov := membudget.New(0)
	gov.Charge(g.Bytes()) // the facade's entry charge
	defer gov.Release(g.Bytes())
	var got []string
	if _, err := hybrid.Enumerate(g, enumcfg.Config{Lo: 3}, core.Hooks{Gov: gov,
		Reporter: clique.ReporterFunc(func(c clique.Clique) { got = append(got, c.Key()) }),
	}); err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(got, want) {
		t.Error("the engine's stream differs from the facade's")
	}
	if def.PeakBytes != gov.Peak() {
		t.Errorf("default PeakBytes %d, the engine below the facade peaks at %d", def.PeakBytes, gov.Peak())
	}
	bitmap := 8 * int64((g.N()+63)/64)
	var bitmaps int64
	for i, l := range def.Levels {
		resident := int64(l.Sublists)
		if i+1 < len(def.Levels) {
			resident += int64(def.Levels[i+1].Sublists)
		}
		bitmaps = max(bitmaps, resident*bitmap)
	}
	if 3*def.PeakBytes > bitmaps {
		t.Errorf("default PeakBytes %d is more than a third of the %d bytes of stored bitmaps", def.PeakBytes, bitmaps)
	}
}

// TestLevelStoreFootprint pins what the front-coded block store bought:
// on the paper's graph C at scale 0.75 (the benchmark's input, seed 1)
// the zero-option run peaks at no more than half the 11 296 872 bytes the
// pointer-per-sub-list store charged for the same run, and every level's
// reported bytes are exactly what its blocks occupy — the facade's
// per-level record, the engine's, and the blocks themselves agree.
func TestLevelStoreFootprint(t *testing.T) {
	const parentPeak = 11296872
	g := expt.Build(expt.SpecC.Scale(0.75), 1)
	var st repro.Stats
	stream(t, repro.NewEnumerator(repro.WithBounds(3, 0), repro.WithStats(&st)), g)
	if 2*st.PeakBytes > parentPeak {
		t.Errorf("zero-option PeakBytes %d, more than half of the pointer-per-sub-list store's %d", st.PeakBytes, parentPeak)
	}
	t.Logf("PeakBytes %d (%.1f%% of %d)", st.PeakBytes, 100*float64(st.PeakBytes)/parentPeak, parentPeak)

	b := core.NewBuilder(g)
	lvl, _, err := core.Seed(context.Background(), g, 3, 1, false, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; len(lvl.Sub) > 0; i++ {
		var blocks int64
		for j := range lvl.Sub {
			blocks += lvl.Sub[j].Bytes()
		}
		out := b.RunLevel(context.Background(), lvl, nil, nil, nil)
		if out.Stats.Bytes != blocks || out.Stats.NextBytes != out.Next.Bytes() {
			t.Fatalf("level %d: step reports %d consumed / %d produced bytes, the blocks hold %d / %d",
				lvl.K, out.Stats.Bytes, out.Stats.NextBytes, blocks, out.Next.Bytes())
		}
		if i >= len(st.Levels) || st.Levels[i].ResidentBytes != out.Stats.Bytes+out.Stats.NextBytes {
			t.Fatalf("level %d: the facade run's per-level record does not show these %d resident bytes",
				lvl.K, out.Stats.Bytes+out.Stats.NextBytes)
		}
		lvl = out.Next
	}
}

// TestHybridStaysInCoreUnderBudget: with a generous budget the hybrid
// backend never touches the disk and says so in its stats.
func TestHybridStaysInCoreUnderBudget(t *testing.T) {
	g := testGraph(4, 70, 0.15)
	var st repro.Stats
	want := stream(t, repro.NewEnumerator(repro.WithBounds(3, 0)), g)
	got := stream(t, repro.NewEnumerator(
		repro.WithBounds(3, 0),
		repro.WithSpillover(t.TempDir()),
		repro.WithMemoryBudget(1<<30),
		repro.WithStats(&st)), g)
	if len(got) != len(want) {
		t.Fatalf("%d cliques, want %d", len(got), len(want))
	}
	if st.SpilledAtLevel != 0 || st.SpillBytesWritten != 0 {
		t.Fatalf("in-core hybrid run spilled: %+v", st)
	}
	if st.Backend != "hybrid(sequential)" {
		t.Fatalf("backend = %q, want hybrid(sequential)", st.Backend)
	}
	if st.PeakBytes == 0 {
		t.Fatal("no PeakBytes on an unspilled hybrid run")
	}
}

// TestMemoryBudgetEnforcedOnEveryInCoreBackend: the governor now
// enforces WithMemoryBudget on the parallel pool too (a combination
// enumcfg used to reject), aborting with ErrMemoryBudget,
// and every backend reports the governor's peak.
func TestMemoryBudgetEnforcedOnEveryInCoreBackend(t *testing.T) {
	g := testGraph(3, 120, 0.25)
	for _, b := range []struct {
		name string
		opts []repro.Option
	}{
		{"sequential", nil},
		{"parallel", []repro.Option{repro.WithWorkers(4)}},
	} {
		t.Run(b.name, func(t *testing.T) {
			var st repro.Stats
			opts := append(append([]repro.Option{}, b.opts...),
				repro.WithBounds(3, 0), repro.WithMemoryBudget(4<<10), repro.WithStats(&st))
			_, err := repro.NewEnumerator(opts...).Run(context.Background(), g, nil)
			if err == nil {
				t.Fatal("tiny budget did not abort")
			}
			if !errors.Is(err, repro.ErrMemoryBudget) {
				t.Fatalf("error %v does not wrap ErrMemoryBudget", err)
			}
			if st.PeakBytes == 0 {
				t.Error("aborted run reported no PeakBytes")
			}
		})
	}
}

// TestParacliquesFillsStats pins the satellite bugfix: the registered
// WithStats sink is populated by Paracliques, as its doc promises.
func TestParacliquesFillsStats(t *testing.T) {
	g := testGraph(4, 60, 0.1)
	var st repro.Stats
	ps, err := repro.NewEnumerator(repro.WithStats(&st)).Paracliques(context.Background(), g, 0.9)
	if err != nil {
		t.Fatal(err)
	}
	if len(ps) == 0 {
		t.Fatal("no paracliques on the test graph")
	}
	if st.Backend != "paraclique" {
		t.Errorf("Backend = %q, want %q", st.Backend, "paraclique")
	}
	if st.Elapsed <= 0 {
		t.Error("Elapsed not populated")
	}
	if st.Paracliques != len(ps) {
		t.Errorf("Stats.Paracliques = %d, want %d", st.Paracliques, len(ps))
	}
	if st.MaximalCliques != int64(len(ps)) {
		t.Errorf("Stats.MaximalCliques = %d, want %d", st.MaximalCliques, len(ps))
	}
	if st.PeakBytes == 0 {
		t.Error("PeakBytes not populated")
	}
	maxCore := 0
	for _, p := range ps {
		if p.CoreSize > maxCore {
			maxCore = p.CoreSize
		}
	}
	if st.MaxCliqueSize != maxCore {
		t.Errorf("MaxCliqueSize = %d, want the largest seed core %d", st.MaxCliqueSize, maxCore)
	}
}

// TestHybridCancellation: Ctrl-C semantics survive the spill — the
// partial stream is a prefix of the reference and the error wraps the
// context error.
func TestHybridCancellation(t *testing.T) {
	g := testGraph(3, 150, 0.22)
	want := stream(t, repro.NewEnumerator(repro.WithBounds(3, 0)), g)
	if len(want) < 40 {
		t.Fatalf("only %d cliques; need a longer run", len(want))
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var got []string
	var st repro.Stats
	_, err := repro.NewEnumerator(
		repro.WithBounds(3, 0),
		repro.WithSpillover(t.TempDir()),
		repro.WithMemoryBudget(1), // trip immediately: the whole run drains
		repro.WithStats(&st),
	).Run(ctx, g, repro.ReporterFunc(func(c repro.Clique) {
		got = append(got, c.Key())
		if len(got) == len(want)/2 {
			cancel()
		}
	}))
	if err == nil {
		t.Fatal("run completed despite cancellation")
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("error %v does not wrap context.Canceled", err)
	}
	for i, k := range got {
		if k != want[i] {
			t.Fatalf("canceled hybrid stream diverges from the reference at %d", i)
		}
	}
	if st.SpilledAtLevel == 0 {
		t.Error("budget 1 did not spill before the cancel")
	}
}
