package repro_test

import (
	"context"
	"errors"
	"strings"
	"testing"

	"repro"
)

// TestHybridSpilloverParityAcrossRepresentations is the PR's acceptance
// property at the facade: a run that trips the memory governor
// mid-enumeration produces the byte-identical ordered clique stream of
// an unconstrained in-core run, for sequential and parallel starts,
// across all three graph representations.  (The "Representation" in the
// name opts it into the make race-repr gate.)
func TestHybridSpilloverParityAcrossRepresentations(t *testing.T) {
	for seed := int64(1); seed <= 2; seed++ {
		g := testGraph(seed, 80, 0.15)
		want := stream(t, repro.NewEnumerator(repro.WithBounds(3, 0)), g)
		if len(want) == 0 {
			t.Fatalf("seed %d: no cliques from the reference run", seed)
		}
		for _, rep := range []repro.Representation{repro.Dense, repro.CSR, repro.Compressed} {
			// The governor charges the representation's adjacency bytes
			// first, so the mid-run trip point is budgeted on top of them.
			conv, err := repro.ConvertGraph(g, rep)
			if err != nil {
				t.Fatal(err)
			}
			for _, workers := range []int{1, 3} {
				for _, extra := range []int64{1, 2048} { // immediate and mid-run trips
					var st repro.Stats
					opts := []repro.Option{
						repro.WithBounds(3, 0),
						repro.WithGraphRepresentation(rep),
						repro.WithSpillover(t.TempDir()),
						repro.WithMemoryBudget(conv.Bytes() + extra),
						repro.WithStats(&st),
					}
					if workers > 1 {
						opts = append(opts, repro.WithWorkers(workers))
					}
					got := stream(t, repro.NewEnumerator(opts...), g)
					if len(got) != len(want) {
						t.Fatalf("seed %d rep %s workers %d extra %d: %d cliques, want %d (backend %s)",
							seed, rep, workers, extra, len(got), len(want), st.Backend)
					}
					for i := range want {
						if got[i] != want[i] {
							t.Fatalf("seed %d rep %s workers %d extra %d: stream diverges at %d",
								seed, rep, workers, extra, i)
						}
					}
					if st.SpilledAtLevel == 0 {
						t.Errorf("seed %d rep %s workers %d extra %d: never spilled (backend %s, peak %d)",
							seed, rep, workers, extra, st.Backend, st.PeakBytes)
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
