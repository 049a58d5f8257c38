package hybrid_test

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"repro/internal/clique"
	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/enumcfg"
	"repro/internal/graph"
	"repro/internal/hybrid"
	"repro/internal/membudget"
	"repro/internal/ooc"
	"repro/internal/testgraph"
)

// TestInvalidOptions: every engine refuses what the facade refuses — the
// one rule, enumcfg.Config.Normalize, with its error — before any work,
// and leaves no goroutine, charge or file behind.
func TestInvalidOptions(t *testing.T) {
	g := graph.New(3)
	engines := []struct {
		name string
		base enumcfg.Config // a valid config for the engine; Dir is filled per run
		run  func(enumcfg.Config, core.Hooks) error
	}{
		{"hybrid", enumcfg.Config{}, func(c enumcfg.Config, h core.Hooks) error {
			_, err := hybrid.Enumerate(g, c, h)
			return err
		}},
		{"hybrid-2w", enumcfg.Config{Workers: 2}, func(c enumcfg.Config, h core.Hooks) error {
			_, err := hybrid.Enumerate(g, c, h)
			return err
		}},
		{"ooc", enumcfg.Config{Dir: "spill"}, func(c enumcfg.Config, h core.Hooks) error {
			_, err := ooc.Enumerate(g, c, h)
			return err
		}},
		{"dist", enumcfg.Config{Dir: "run", DistWorkers: 2}, func(c enumcfg.Config, h core.Hooks) error {
			_, err := dist.Enumerate(g, c, h, &dist.LoopbackTransport{})
			return err
		}},
	}
	invalid := []struct {
		name string
		set  func(*enumcfg.Config)
	}{
		{"lo below one", func(c *enumcfg.Config) { c.Lo = -1 }},
		{"inverted bounds", func(c *enumcfg.Config) { c.Lo, c.Hi = 5, 4 }},
		{"strategy below range", func(c *enumcfg.Config) { c.Strategy = enumcfg.Contiguous - 1 }},
		{"unknown strategy", func(c *enumcfg.Config) { c.Strategy = enumcfg.Affinity + 1 }},
		{"negative shard bytes", func(c *enumcfg.Config) { c.ShardBytes = -1 }},
		{"negative lease timeout", func(c *enumcfg.Config) { c.DistLeaseTimeout = -1 }},
	}
	for _, e := range engines {
		for _, inv := range invalid {
			t.Run(e.name+"/"+inv.name, func(t *testing.T) {
				cfg := e.base
				dir := t.TempDir()
				if cfg.Dir != "" {
					cfg.Dir = dir
				}
				inv.set(&cfg)
				want := cfg
				wantErr := want.Normalize()
				if wantErr == nil {
					t.Fatalf("Normalize accepts %+v", cfg)
				}
				gov := membudget.New(0)
				check := testgraph.NoLeaks(t, gov, dir)
				err := e.run(cfg, core.Hooks{Gov: gov})
				if err == nil || !strings.Contains(err.Error(), wantErr.Error()) {
					t.Errorf("error %v, want Normalize's %q", err, wantErr)
				}
				check()
			})
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
		_, err := hybrid.Enumerate(g, enumcfg.Config{Workers: workers}, core.Hooks{Reporter: col, Gov: gov})
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
				res, err := hybrid.Enumerate(g, enumcfg.Config{
					Lo:          c.lo,
					ReportSmall: c.small,
					Workers:     workers,
					Strategy:    strategy,
				}, core.Hooks{Reporter: col})
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
