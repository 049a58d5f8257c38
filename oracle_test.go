package repro_test

import (
	"context"
	"fmt"
	"slices"
	"testing"

	"repro"
	"repro/internal/bk"
	"repro/internal/clique"
	"repro/internal/testgraph"
)

// TestOracleDifferential drives the testgraph table through every
// in-core configuration — sequential, the pool at 2 and 3 workers, and
// the hybrid backend under a budget that makes it spill — on all three
// graph representations under all three bitmap policies, and holds each
// run's clique stream to the Bron–Kerbosch oracle: the same cliques, in
// canonical order, within the bounds of the run.  Every entry runs at
// the default bounds [3, ∞); the entries that name bounds run at those
// too.
func TestOracleDifferential(t *testing.T) {
	engines := []struct {
		name string
		opts func(t *testing.T, graphBytes int64) []repro.Option
	}{
		{"sequential", func(*testing.T, int64) []repro.Option { return nil }},
		{"pool-2", func(*testing.T, int64) []repro.Option { return []repro.Option{repro.WithWorkers(2)} }},
		{"pool-3", func(*testing.T, int64) []repro.Option { return []repro.Option{repro.WithWorkers(3)} }},
		// A budget of the adjacency plus one machine word more: the first
		// sealed block trips it.
		{"hybrid", func(t *testing.T, graphBytes int64) []repro.Option {
			return []repro.Option{repro.WithSpillover(t.TempDir()), repro.WithMemoryBudget(graphBytes + 8)}
		}},
	}
	modes := []struct {
		name string
		opts []repro.Option
	}{
		{"memoised", nil},
		{"stored", []repro.Option{repro.WithStoredBitmaps()}},
	}
	spilled := 0
	for _, tg := range testgraph.All() {
		dense := tg.Build()
		oracle := bk.MaximalCliques(dense, bk.Improved)
		bounds := [][2]int{{3, 0}}
		if tg.Lo > 0 {
			bounds = append(bounds, [2]int{tg.Lo, tg.Hi})
		}
		for _, b := range bounds {
			var want []string
			for _, c := range oracle {
				if len(c) >= b[0] && (b[1] == 0 || len(c) <= b[1]) {
					want = append(want, c.Key())
				}
			}
			for _, rep := range []repro.Representation{repro.Dense, repro.CSR, repro.Compressed} {
				g, err := repro.ConvertGraph(dense, rep)
				if err != nil {
					t.Fatalf("%s: convert to %s: %v", tg.Name, rep, err)
				}
				for _, eng := range engines {
					for _, mode := range modes {
						name := fmt.Sprintf("%s [%d,%d] %s %s %s", tg.Name, b[0], b[1], rep, eng.name, mode.name)
						var st repro.Stats
						opts := append(append(eng.opts(t, g.Bytes()), mode.opts...),
							repro.WithBounds(b[0], b[1]), repro.WithGraphRepresentation(rep), repro.WithStats(&st))
						var got []clique.Clique
						if _, err := repro.NewEnumerator(opts...).Run(context.Background(), g, repro.ReporterFunc(func(c repro.Clique) {
							got = append(got, slices.Clone(c))
						})); err != nil {
							t.Fatalf("%s: %v", name, err)
						}
						if !slices.IsSortedFunc(got, func(a, b clique.Clique) int {
							if len(a) != len(b) {
								return len(a) - len(b)
							}
							return clique.Compare(a, b)
						}) {
							t.Errorf("%s: stream not in canonical order", name)
						}
						keys := make([]string, len(got))
						for i, c := range got {
							keys[i] = c.Key()
						}
						slices.Sort(keys)
						sorted := slices.Clone(want)
						slices.Sort(sorted)
						if !slices.Equal(keys, sorted) {
							t.Errorf("%s: %d cliques, the oracle has %d in bounds", name, len(keys), len(sorted))
						}
						if st.SpilledAtLevel > 0 {
							spilled++
						}
					}
				}
			}
		}
	}
	if spilled == 0 {
		t.Error("no hybrid run of the table ever spilled")
	}
}
