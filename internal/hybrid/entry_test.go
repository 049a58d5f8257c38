package hybrid_test

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/clique"
	"repro/internal/core"
	"repro/internal/enumcfg"
	"repro/internal/graph"
	"repro/internal/hybrid"
	"repro/internal/membudget"
)

// TestInvalidOptions: bounds and bitmap modes outside their domains are
// refused before any work, on either engine.
func TestInvalidOptions(t *testing.T) {
	g := graph.New(3)
	for _, workers := range []int{1, 2} {
		for _, opts := range []hybrid.Options{
			{Lo: -1},
			{Lo: 5, Hi: 4},
			{Mode: core.CNRecompute - 1},
			{Mode: core.CNStore + 1},
		} {
			opts.Workers = workers
			if _, err := hybrid.Enumerate(g, opts); err == nil {
				t.Errorf("workers %d: %+v accepted", workers, opts)
			}
		}
	}
}

// TestMemoryBudgetAbort: without a spill directory a tripped budget
// aborts the run with an error wrapping ErrMemoryBudget, and what was
// delivered before the trip is valid maximal cliques.
func TestMemoryBudgetAbort(t *testing.T) {
	rng := rand.New(rand.NewSource(56))
	g := graph.PlantedGraph(rng, 60, []graph.PlantedCliqueSpec{
		{Size: 10}, {Size: 8, Overlap: 4},
	}, 200)
	for _, workers := range []int{1, 3} {
		col := &clique.Collector{}
		gov := membudget.New(2048)
		_, err := hybrid.Enumerate(g, hybrid.Options{Workers: workers, Reporter: col, Gov: gov})
		if !errors.Is(err, core.ErrMemoryBudget) {
			t.Fatalf("workers %d: error %v does not wrap ErrMemoryBudget", workers, err)
		}
		if err := clique.Validate(g, col.Cliques, 3, 0); err != nil {
			t.Errorf("workers %d: partial results invalid: %v", workers, err)
		}
		if gov.Peak() <= 2048 || gov.Used() != 0 {
			t.Errorf("workers %d: governor peak %d should exceed the budget it tripped; %d bytes left charged",
				workers, gov.Peak(), gov.Used())
		}
	}
}

// TestReportSmall: maximal 1- and 2-cliques come from the seed, ahead of
// every level, in the same order on any engine and dispatch strategy.
func TestReportSmall(t *testing.T) {
	// Isolated vertex 4, isolated edge (2,3), triangle (0,1,5).
	g := graph.New(6)
	g.AddEdge(2, 3)
	graph.PlantClique(g, []int{0, 1, 5})
	for _, c := range []struct {
		lo    int
		small bool
		want  []string
	}{
		{1, true, []string{"4", "2,3", "0,1,5"}},
		{2, true, []string{"2,3", "0,1,5"}},
		{1, false, []string{"0,1,5"}},
	} {
		for _, workers := range []int{1, 2} {
			for _, strategy := range []enumcfg.Strategy{enumcfg.Contiguous, enumcfg.Affinity} {
				name := fmt.Sprintf("lo %d small %v workers %d strategy %d", c.lo, c.small, workers, strategy)
				col := &clique.Collector{}
				res, err := hybrid.Enumerate(g, hybrid.Options{
					Lo: c.lo, ReportSmall: c.small, Workers: workers, Strategy: strategy, Reporter: col,
				})
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				if got := keys(col.Cliques); !slices.Equal(got, c.want) {
					t.Errorf("%s: cliques %v, want %v", name, got, c.want)
				}
				if res.MaximalCliques != int64(len(c.want)) || res.MaxCliqueSize != 3 {
					t.Errorf("%s: result counts %d cliques, max size %d", name, res.MaximalCliques, res.MaxCliqueSize)
				}
			}
		}
	}
}
