package ooc

import (
	"context"
	"errors"
	"math/rand"
	"os"
	"testing"

	"repro/internal/bk"
	"repro/internal/clique"
	"repro/internal/core"
	"repro/internal/enumcfg"
	"repro/internal/graph"
	"repro/internal/membudget"
	"repro/internal/testgraph"
)

func run(t *testing.T, g *graph.Graph) (*clique.Collector, Stats) {
	t.Helper()
	col := &clique.Collector{}
	st, err := Enumerate(g, enumcfg.Config{Dir: t.TempDir()}, core.Hooks{Reporter: col})
	if err != nil {
		t.Fatal(err)
	}
	return col, st
}

// oracle is the in-core engines' stream computed by Bron–Kerbosch: the
// maximal cliques of at least lo vertices in canonical order.
func oracle(g *graph.Graph, lo int) []clique.Clique {
	var out []clique.Clique
	for _, c := range bk.MaximalCliques(g, bk.Improved) {
		if len(c) >= lo {
			out = append(out, c)
		}
	}
	return out
}

func TestMatchesInCoreOnRandomGraphs(t *testing.T) {
	rng := rand.New(rand.NewSource(121))
	for trial := 0; trial < 20; trial++ {
		g := graph.RandomGNP(rng, 4+rng.Intn(14), 0.5)
		outOfCore, _ := run(t, g)
		if ok, diff := clique.SameSets(oracle(g, 3), outOfCore.Cliques); !ok {
			t.Fatalf("trial %d: %s", trial, diff)
		}
	}
}

func TestMatchesInCoreOnPlanted(t *testing.T) {
	rng := rand.New(rand.NewSource(122))
	g := graph.PlantedGraph(rng, 80, []graph.PlantedCliqueSpec{
		{Size: 9}, {Size: 6, Overlap: 3},
	}, 150)
	want := oracle(g, 3)
	outOfCore, st := run(t, g)
	if ok, diff := clique.SameSets(want, outOfCore.Cliques); !ok {
		t.Fatal(diff)
	}
	if st.Maximal != int64(len(want)) {
		t.Errorf("Maximal = %d, want %d", st.Maximal, len(want))
	}
	if st.BytesWritten == 0 || st.BytesRead == 0 {
		t.Errorf("I/O accounting empty: %+v", st)
	}
	if st.PeakLevelFile == 0 || st.Levels == 0 {
		t.Errorf("level accounting empty: %+v", st)
	}
}

func TestNonDecreasingOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(123))
	g := graph.PlantedGraph(rng, 40, []graph.PlantedCliqueSpec{
		{Size: 7}, {Size: 5, Overlap: 2},
	}, 60)
	lastSize := 0
	col := clique.ReporterFunc(func(c clique.Clique) {
		if len(c) < lastSize {
			t.Fatalf("size order violated: %d after %d", len(c), lastSize)
		}
		lastSize = len(c)
	})
	if _, err := Enumerate(g, enumcfg.Config{Dir: t.TempDir()}, core.Hooks{Reporter: col}); err != nil {
		t.Fatal(err)
	}
}

func TestSpillBudgetAborts(t *testing.T) {
	rng := rand.New(rand.NewSource(125))
	g := graph.PlantedGraph(rng, 60, []graph.PlantedCliqueSpec{{Size: 10}}, 100)
	for _, workers := range []int{1, 4} {
		st, err := Enumerate(g, enumcfg.Config{Dir: t.TempDir(), SpillBudget: 256, Workers: workers}, core.Hooks{})
		if !errors.Is(err, ErrSpillBudget) {
			t.Fatalf("workers=%d: err = %v, want ErrSpillBudget", workers, err)
		}
		if !st.Aborted {
			t.Errorf("workers=%d: Aborted flag not set", workers)
		}
		// The aborted run must report the I/O it actually performed: the
		// level tripped the budget, so at least budget bytes moved.
		if st.BytesWritten <= 256 {
			t.Errorf("workers=%d: aborted run reports %d bytes written, want > budget", workers, st.BytesWritten)
		}
	}
}

// TestSpillBudgetAbortsMidJoin forces the abort into the join of a
// later level (not the edge spill) and checks the accounting still
// covers the bytes the aborted level already wrote — the fix for the
// old fail() path that removed the file without accounting.
func TestSpillBudgetAbortsMidJoin(t *testing.T) {
	rng := rand.New(rand.NewSource(129))
	g := graph.PlantedGraph(rng, 60, []graph.PlantedCliqueSpec{{Size: 10}}, 100)
	// A budget the edge level fits under but a later level must exceed.
	edgeBytes := int64(8*g.M()) + shardHeaderLen
	full, err := Enumerate(g, enumcfg.Config{Dir: t.TempDir()}, core.Hooks{})
	if err != nil {
		t.Fatal(err)
	}
	if full.PeakLevelFile <= edgeBytes {
		t.Fatalf("test graph too small: peak level %d not past the edge level %d", full.PeakLevelFile, edgeBytes)
	}
	gov := membudget.New(0)
	st, err := Enumerate(g, enumcfg.Config{Dir: t.TempDir(), SpillBudget: edgeBytes}, core.Hooks{Gov: gov})
	if !errors.Is(err, ErrSpillBudget) {
		t.Fatalf("err = %v, want ErrSpillBudget", err)
	}
	if !st.Aborted {
		t.Error("Aborted flag not set")
	}
	// The abort cut a join short: joiner scratch (prefix memo included),
	// decode window and write buffer must all have been returned.
	if gov.Peak() == 0 || gov.Used() != 0 {
		t.Errorf("governor after the aborted join: used %d, peak %d", gov.Used(), gov.Peak())
	}
	// Edge level + the aborted join level's writes must both be counted.
	if st.BytesWritten <= edgeBytes {
		t.Errorf("aborted run reports %d bytes written; the aborted level's writes (> %d) are missing",
			st.BytesWritten, edgeBytes)
	}
	if st.Levels == 0 || st.BytesRead == 0 {
		t.Errorf("aborted run lost level/read accounting: %+v", st)
	}
}

// orderedKeys runs Enumerate and returns the emitted stream as ordered
// keys, failing on any error.
func orderedKeys(t *testing.T, g graph.Interface, cfg enumcfg.Config, h core.Hooks) ([]string, Stats) {
	t.Helper()
	var keys []string
	h.Reporter = clique.ReporterFunc(func(c clique.Clique) {
		keys = append(keys, c.Key())
	})
	if cfg.Dir == "" {
		cfg.Dir = t.TempDir()
	}
	st, err := Enumerate(g, cfg, h)
	if err != nil {
		t.Fatal(err)
	}
	return keys, st
}

// TestParallelCompressedParity is the engine's acceptance property: any
// combination of workers, checkpointing and shard granularity emits the
// byte-identical ordered clique stream the serial run emits.
func TestParallelCompressedParity(t *testing.T) {
	rng := rand.New(rand.NewSource(127))
	for trial := 0; trial < 3; trial++ {
		g := graph.PlantedGraph(rng, 90, []graph.PlantedCliqueSpec{
			{Size: 10}, {Size: 7, Overlap: 3}, {Size: 6},
		}, 200)
		want, _ := orderedKeys(t, g, enumcfg.Config{}, core.Hooks{})
		if len(want) == 0 {
			t.Fatal("reference run found no cliques")
		}
		for _, c := range []struct {
			name string
			cfg  enumcfg.Config
		}{
			{"parallel", enumcfg.Config{Workers: 4}},
			{"tiny-shards", enumcfg.Config{Workers: 4, ShardBytes: 64}},
			{"parallel-checkpoint", enumcfg.Config{Workers: 3, Checkpoint: true, Dir: t.TempDir()}},
			{"many-workers", enumcfg.Config{Workers: 16, ShardBytes: 256}},
		} {
			got, _ := orderedKeys(t, g, c.cfg, core.Hooks{})
			if len(got) != len(want) {
				t.Fatalf("trial %d %s: %d cliques, want %d", trial, c.name, len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("trial %d %s: stream diverges at %d: got {%s}, want {%s}",
						trial, c.name, i, got[i], want[i])
				}
			}
		}
	}
}

// TestRepresentationParity joins over every graph representation with
// and without workers — the cross-layer property `make race` exercises
// under the race detector.
func TestRepresentationParity(t *testing.T) {
	rng := rand.New(rand.NewSource(128))
	dense := graph.PlantedGraph(rng, 70, []graph.PlantedCliqueSpec{
		{Size: 9}, {Size: 6, Overlap: 2},
	}, 120)
	want, _ := orderedKeys(t, dense, enumcfg.Config{}, core.Hooks{})
	for _, rep := range []graph.Representation{graph.Dense, graph.CSR, graph.Compressed} {
		gg, err := graph.Convert(dense, rep)
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{1, 4} {
			got, _ := orderedKeys(t, gg, enumcfg.Config{Workers: workers, ShardBytes: 512}, core.Hooks{})
			if len(got) != len(want) {
				t.Fatalf("%s workers=%d: %d cliques, want %d", rep, workers, len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("%s workers=%d: stream diverges at %d", rep, workers, i)
				}
			}
		}
	}
}

// TestPrefetchParity pins the pipeline contract: decode-ahead and the
// join's writes change when a shard's bytes leave and reach the disk,
// never what the join emits — the clique stream is the in-core engine's,
// byte for byte, at every worker count and queue depth, and the
// governor's ledger (which carries every block between the stages and
// every read window and write buffer) returns to zero.
func TestPrefetchParity(t *testing.T) {
	rng := rand.New(rand.NewSource(133))
	g := graph.PlantedGraph(rng, 90, []graph.PlantedCliqueSpec{
		{Size: 10}, {Size: 7, Overlap: 3}, {Size: 6},
	}, 200)
	var want []string
	for _, c := range oracle(g, 3) {
		want = append(want, c.Key())
	}
	if len(want) == 0 {
		t.Fatal("reference run found no cliques")
	}
	for _, workers := range []int{1, 4} {
		for _, depthOne := range []bool{false, true} {
			// An unlimited budget queues blocks four deep; one the run
			// overshoots at once leaves every stage a 4 KiB share: depth one.
			gov := membudget.New(0)
			if depthOne {
				gov = membudget.New(1)
			}
			got, st := orderedKeys(t, g, enumcfg.Config{
				Workers:    workers,
				ShardBytes: 256, // many shards: decode-ahead crosses shard boundaries all the time
			}, core.Hooks{Gov: gov})
			if len(got) != len(want) {
				t.Fatalf("workers=%d depth-one=%v: %d cliques, want %d", workers, depthOne, len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("workers=%d depth-one=%v: stream diverges at %d: got {%s}, want {%s}",
						workers, depthOne, i, got[i], want[i])
				}
			}
			if st.BytesRead == 0 {
				t.Errorf("workers=%d depth-one=%v: pipelined run reports no bytes read", workers, depthOne)
			}
			if used := gov.Used(); used != 0 {
				t.Errorf("workers=%d depth-one=%v: governor ledger unbalanced after run: %d", workers, depthOne, used)
			}
		}
	}
}

// TestPrefetchCancellation pins the abandon path: canceling mid-run with
// blocks in flight between the stages must stop decode-ahead and the
// join, release every block, window and buffer charge, and still clean
// the spill directory.
func TestPrefetchCancellation(t *testing.T) {
	rng := rand.New(rand.NewSource(134))
	g := graph.PlantedGraph(rng, 110, []graph.PlantedCliqueSpec{{Size: 11}, {Size: 9, Overlap: 2}}, 260)
	gov := membudget.New(0)
	ctx, cancel := context.WithCancel(context.Background())
	n := 0
	rep := clique.ReporterFunc(func(clique.Clique) {
		n++
		if n == 5 {
			cancel()
		}
	})
	dir := t.TempDir()
	_, err := Enumerate(g, enumcfg.Config{
		Ctx:        ctx,
		Dir:        dir,
		Workers:    4,
		ShardBytes: 128,
	}, core.Hooks{
		Reporter: rep,
		Gov:      gov,
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if used := gov.Used(); used != 0 {
		t.Errorf("governor ledger unbalanced after canceled run: %d", used)
	}
	entries, derr := os.ReadDir(dir)
	if derr != nil {
		t.Fatal(derr)
	}
	if len(entries) != 0 {
		t.Errorf("spill dir not cleaned after cancel: %d entries", len(entries))
	}
}

// TestCompressionShrinksLevelFiles pins the >= 2x I/O reduction the
// front-coded level blocks bring to disk: the frames a run writes take
// at most half the bytes of the same records at fixed width.
func TestCompressionShrinksLevelFiles(t *testing.T) {
	rng := rand.New(rand.NewSource(130))
	g := graph.PlantedGraph(rng, 150, []graph.PlantedCliqueSpec{{Size: 12}}, 250)
	_, st := orderedKeys(t, g, enumcfg.Config{}, core.Hooks{})
	if st.RawBytesWritten == 0 || 2*st.BytesWritten > st.RawBytesWritten {
		t.Errorf("the run wrote %d bytes of frames for %d bytes of fixed-width records: less than the 2x target",
			st.BytesWritten, st.RawBytesWritten)
	}
	t.Logf("level-file bytes: fixed-width %d, frames %d (%.1fx)",
		st.RawBytesWritten, st.BytesWritten, float64(st.RawBytesWritten)/float64(st.BytesWritten))
}

// TestCancellationCleansSpillDir cancels a plain run mid-level and
// checks the spill directory is empty afterwards (run dirs are private
// and removed even on abort).
func TestCancellationCleansSpillDir(t *testing.T) {
	rng := rand.New(rand.NewSource(131))
	g := graph.PlantedGraph(rng, 100, []graph.PlantedCliqueSpec{{Size: 11}}, 200)
	for _, workers := range []int{1, 4} {
		dir := t.TempDir()
		ctx, cancel := context.WithCancel(context.Background())
		emitted := 0
		_, err := Enumerate(g, enumcfg.Config{
			Ctx:        ctx,
			Dir:        dir,
			Workers:    workers,
			ShardBytes: 512,
		}, core.Hooks{Reporter: clique.ReporterFunc(func(clique.Clique) {
			if emitted++; emitted == 3 {
				cancel()
			}
		})})
		cancel()
		if err == nil {
			t.Fatalf("workers=%d: canceled run completed", workers)
		}
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("workers=%d: error %v does not wrap context.Canceled", workers, err)
		}
		entries, rerr := os.ReadDir(dir)
		if rerr != nil {
			t.Fatal(rerr)
		}
		for _, e := range entries {
			t.Errorf("workers=%d: leftover spill entry %s", workers, e.Name())
		}
	}
}

// TestJoinHotLoopAllocs pins the hoisted-scratch fix: the spill hot
// loop must not allocate per record.  The planted-12 run spills tens of
// thousands of records; the per-run allocation count stays bounded by
// the shard/level structure (files, buffers, arenas), orders of
// magnitude below one-per-record.
func TestJoinHotLoopAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(132))
	g := graph.PlantedGraph(rng, 150, []graph.PlantedCliqueSpec{{Size: 12}}, 250)
	dir := t.TempDir()
	var spilled int64
	allocs := testing.AllocsPerRun(3, func() {
		st, err := Enumerate(g, enumcfg.Config{Dir: dir}, core.Hooks{})
		if err != nil {
			t.Fatal(err)
		}
		spilled = st.RawBytesWritten / 4
	})
	if spilled < 10000 {
		t.Fatalf("only %d vertices spilled; the graph is too small to prove anything", spilled)
	}
	// The old hot loop allocated one record slice per spilled record
	// (>= spilled/k allocations).  The rebuilt loop's budget covers
	// files, bufio buffers and stats, per level the shard list and per
	// level and worker the pipeline's goroutine and the context, and once
	// a worker decode-ahead's queues with its block buffers and their
	// admissions, kept from level to level, and the join's copy of a
	// group: 790 a run at the most, measured (go test -count 8 -run
	// TestJoinHotLoopAllocs -v ./internal/ooc); 800 while a boundary's
	// deletions ran on a goroutine of their own.  The bound is 800 x 1.05
	// = 840, set when the join took over writing its output: one
	// goroutine and two channels fewer per level and worker than with a
	// write-behind stage (843 then; 941 when decode-ahead's queues and
	// buffers were made anew every level).
	if allocs > 840 {
		t.Errorf("%.0f allocs/run for %d spilled vertices: the hot loop is allocating per record", allocs, spilled)
	}
	t.Logf("%.0f allocs/run, %d spilled vertices", allocs, spilled)
}

// TestNoGoroutineOutlivesItsLevel pins the pool's lifetimes: when a
// level's record is taken, the goroutines that joined the level have
// ended, and a boundary's deletions run on the loop's goroutine; only the
// Joiners stay for the run.
func TestNoGoroutineOutlivesItsLevel(t *testing.T) {
	g := plantedGraph(213)
	check := testgraph.NoLeaks(t, nil)
	levels := 0
	_, err := Enumerate(g, enumcfg.Config{Dir: t.TempDir(), Workers: 2}, core.Hooks{
		OnLevel: func(core.LevelStats) {
			if levels++; !t.Failed() {
				check()
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if levels < 2 {
		t.Fatalf("%d levels on disk; the check needs more than one", levels)
	}
}

func TestMaxKStopsEarly(t *testing.T) {
	g := graph.New(9)
	graph.PlantClique(g, []int{0, 1, 2, 3, 4, 5, 6, 7, 8})
	col := &clique.Collector{}
	st, err := Enumerate(g, enumcfg.Config{Dir: t.TempDir(), Hi: 4}, core.Hooks{Reporter: col})
	if err != nil {
		t.Fatal(err)
	}
	if st.Levels != 2 {
		t.Errorf("levels = %d, want 2 (k=2 and k=3 processed)", st.Levels)
	}
	// Inside K9 nothing of size 3..4 is maximal.
	if len(col.Cliques) != 0 {
		t.Errorf("cliques = %v", col.Cliques)
	}
}

func TestDirRequired(t *testing.T) {
	if _, err := Enumerate(graph.New(2), enumcfg.Config{}, core.Hooks{}); err == nil {
		t.Fatal("missing Dir accepted")
	}
}

func TestEmptyGraph(t *testing.T) {
	col, st := run(t, graph.New(5))
	if len(col.Cliques) != 0 || st.Maximal != 0 {
		t.Error("edgeless graph produced cliques")
	}
}

func BenchmarkOutOfCorePlanted10(b *testing.B) {
	rng := rand.New(rand.NewSource(126))
	g := graph.PlantedGraph(rng, 150, []graph.PlantedCliqueSpec{{Size: 10}}, 250)
	dir := b.TempDir()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Enumerate(g, enumcfg.Config{Dir: dir}, core.Hooks{}); err != nil {
			b.Fatal(err)
		}
	}
}
