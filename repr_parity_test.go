package repro_test

// The acceptance gates of the pluggable graph-representation layer:
//
//   - cross-representation parity: dense, CSR and WAH graphs built from
//     the same edge stream produce identical ordered clique streams
//     through Enumerator.Run across the sequential, parallel and
//     out-of-core backends, on randomized graphs;
//   - the memory win is pinned: on a synthetic sparse graph (n >= 100k,
//     average degree <= 32) the CSR footprint, by the representation's
//     own Bytes() accounting, is under 5% of the dense footprint.

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"repro"
)

// streamRandomEdges feeds the same pseudo-random edge stream (duplicates
// and all) into a builder — the "same edge stream" premise of the parity
// gate.
func streamRandomEdges(tb testing.TB, b *repro.GraphBuilder, n, adds int, seed int64) {
	tb.Helper()
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < adds; i++ {
		u, v := rng.Intn(n), rng.Intn(n)
		if u == v {
			continue
		}
		if err := b.AddEdge(u, v); err != nil {
			tb.Fatal(err)
		}
	}
}

func buildRepGraph(tb testing.TB, rep repro.Representation, n, adds int, seed int64) repro.GraphInterface {
	tb.Helper()
	b := repro.NewGraphBuilder(n).WithRepresentation(rep)
	streamRandomEdges(tb, b, n, adds, seed)
	g, err := b.Freeze()
	if err != nil {
		tb.Fatal(err)
	}
	return g
}

func collectCliques(tb testing.TB, g repro.GraphInterface, opts ...repro.Option) []repro.Clique {
	tb.Helper()
	col := &repro.Collector{}
	if _, err := repro.NewEnumerator(opts...).Run(context.Background(), g, col); err != nil {
		tb.Fatalf("Run: %v", err)
	}
	return col.Cliques
}

func sameCliqueStreams(a, b []repro.Clique) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if len(a[i]) != len(b[i]) {
			return false
		}
		for j := range a[i] {
			if a[i][j] != b[i][j] {
				return false
			}
		}
	}
	return true
}

// TestRepresentationBackendParity is the ≥6-configuration parity gate:
// 3 representations × 3 execution backends (plus the barrier pool and a
// CN-mode variation below), each against the dense sequential baseline,
// over randomized graphs.
func TestRepresentationBackendParity(t *testing.T) {
	reps := []repro.Representation{repro.Dense, repro.CSR, repro.Compressed}
	for seed := int64(1); seed <= 3; seed++ {
		n := 50 + int(seed)*17
		adds := n * 6
		baseline := collectCliques(t, buildRepGraph(t, repro.Dense, n, adds, seed),
			repro.WithBounds(3, 0))
		if len(baseline) == 0 {
			t.Fatalf("seed %d: baseline found no cliques; weak test", seed)
		}
		backends := []struct {
			name string
			opts []repro.Option
		}{
			{"sequential", []repro.Option{repro.WithBounds(3, 0)}},
			{"parallel-streaming", []repro.Option{repro.WithBounds(3, 0),
				repro.WithWorkers(3), repro.WithStrategy(repro.Affinity)}},
			{"out-of-core", []repro.Option{repro.WithBounds(3, 0),
				repro.WithOutOfCore(t.TempDir(), 0)}},
		}
		for _, rep := range reps {
			g := buildRepGraph(t, rep, n, adds, seed)
			for _, be := range backends {
				t.Run(fmt.Sprintf("seed%d/%v/%s", seed, rep, be.name), func(t *testing.T) {
					got := collectCliques(t, g, be.opts...)
					if !sameCliqueStreams(baseline, got) {
						t.Errorf("clique stream diverges from dense sequential baseline (%d vs %d cliques)",
							len(got), len(baseline))
					}
				})
			}
			// CN-mode variation.  The backend rows above run the default
			// policy, so the zero-option run must be the low-memory one on
			// this representation too: the baseline's stream at a governor
			// peak under the stored-bitmap run's.
			t.Run(fmt.Sprintf("seed%d/%v/lowmem", seed, rep), func(t *testing.T) {
				var def, stored repro.Stats
				got := collectCliques(t, g, repro.WithBounds(3, 0), repro.WithStats(&def))
				if !sameCliqueStreams(baseline, got) {
					t.Error("low-memory clique stream diverges")
				}
				collectCliques(t, g, repro.WithBounds(3, 0), repro.WithStoredBitmaps(), repro.WithStats(&stored))
				if def.PeakBytes >= stored.PeakBytes {
					t.Errorf("default peak %d is not below the stored-bitmap peak %d", def.PeakBytes, stored.PeakBytes)
				}
			})
			// The paper's stored bitmaps must stream the same bytes from
			// every engine that holds a level in memory; the hybrid budget
			// sits halfway up the sequential run's candidate peak, a
			// mid-run trip.
			t.Run(fmt.Sprintf("seed%d/%v/store", seed, rep), func(t *testing.T) {
				var st repro.Stats
				run := func(name string, opts ...repro.Option) {
					opts = append(opts, repro.WithBounds(3, 0), repro.WithStoredBitmaps(), repro.WithStats(&st))
					if got := collectCliques(t, g, opts...); !sameCliqueStreams(baseline, got) {
						t.Errorf("%s: stored-bitmap clique stream diverges", name)
					}
				}
				run("sequential")
				budget := g.Bytes() + (st.PeakBytes-g.Bytes())/2
				run("pool", repro.WithWorkers(3), repro.WithStrategy(repro.Affinity))
				run("hybrid", repro.WithSpillover(t.TempDir()), repro.WithMemoryBudget(budget))
				if st.SpilledAtLevel == 0 {
					t.Errorf("hybrid: budget %d never spilled (peak %d)", budget, st.PeakBytes)
				}
			})
		}
	}
}

// TestRepresentationParitySeeded covers the Lo >= 3 k-clique seeding
// path (parallel seeder included) across representations.
func TestRepresentationParitySeeded(t *testing.T) {
	const n, adds, seed = 64, 800, 9
	baseline := collectCliques(t, buildRepGraph(t, repro.Dense, n, adds, seed),
		repro.WithBounds(4, 0))
	for _, rep := range []repro.Representation{repro.CSR, repro.Compressed} {
		g := buildRepGraph(t, rep, n, adds, seed)
		got := collectCliques(t, g, repro.WithBounds(4, 0))
		if !sameCliqueStreams(baseline, got) {
			t.Errorf("%v: seeded stream diverges", rep)
		}
		got = collectCliques(t, g, repro.WithBounds(4, 0), repro.WithWorkers(4))
		if !sameCliqueStreams(baseline, got) {
			t.Errorf("%v: parallel seeded stream diverges", rep)
		}
	}
}

// TestWithGraphRepresentationConverts checks the enumerator option: the
// conversion happens per run, never mutates the input, and Auto on a
// small graph picks dense.
func TestWithGraphRepresentationConverts(t *testing.T) {
	const n, adds, seed = 40, 200, 5
	dense := buildRepGraph(t, repro.Dense, n, adds, seed)
	baseline := collectCliques(t, dense, repro.WithBounds(3, 0))
	for _, rep := range []repro.Representation{repro.Auto, repro.CSR, repro.Compressed} {
		got := collectCliques(t, dense, repro.WithBounds(3, 0), repro.WithGraphRepresentation(rep))
		if !sameCliqueStreams(baseline, got) {
			t.Errorf("WithGraphRepresentation(%v): stream diverges", rep)
		}
	}
	if dense.Representation() != repro.Dense {
		t.Error("input graph was mutated by conversion")
	}
	if _, err := repro.NewEnumerator(repro.WithGraphRepresentation(repro.Representation(77))).
		Run(context.Background(), dense, nil); err == nil {
		t.Error("unknown representation accepted")
	}
}

// TestCSRMemoryWin pins the acceptance criterion: n >= 100k vertices,
// average degree <= 32, CSR adjacency footprint < 5% of the dense
// footprint by the representations' own Bytes() accounting.
func TestCSRMemoryWin(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a 100k-vertex graph")
	}
	const n = 100_000
	const targetAvgDeg = 32
	b := repro.NewGraphBuilder(n).WithRepresentation(repro.CSR)
	streamRandomEdges(t, b, n, n*targetAvgDeg/2, 123)
	g, err := b.Freeze()
	if err != nil {
		t.Fatal(err)
	}
	if avg := 2 * float64(g.M()) / n; avg > targetAvgDeg {
		t.Fatalf("average degree %.1f exceeds %d; test premise broken", avg, targetAvgDeg)
	}
	denseBytes := repro.DenseAdjacencyBytes(n)
	csrBytes := g.Bytes()
	ratio := float64(csrBytes) / float64(denseBytes)
	t.Logf("n=%d m=%d: CSR %d bytes vs dense %d bytes (%.2f%%)",
		n, g.M(), csrBytes, denseBytes, 100*ratio)
	if ratio >= 0.05 {
		t.Errorf("CSR footprint is %.2f%% of dense, want < 5%%", 100*ratio)
	}
	// Auto must reach the same verdict on this shape of graph.
	b2 := repro.NewGraphBuilder(n)
	streamRandomEdges(t, b2, n, n*targetAvgDeg/2, 123)
	g2, err := b2.Freeze()
	if err != nil {
		t.Fatal(err)
	}
	if g2.Representation() != repro.CSR {
		t.Errorf("Auto picked %v for a genome-scale sparse graph", g2.Representation())
	}
}
