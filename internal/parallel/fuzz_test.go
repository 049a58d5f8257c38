package parallel_test

import (
	"context"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/clique"
	"repro/internal/core"
	"repro/internal/enumcfg"
	"repro/internal/graph"
	"repro/internal/hybrid"
	"repro/internal/parallel"
	"repro/internal/sched"
)

// TestQuickParallelEqualsSequential fuzzes the parallel backend against
// the sequential enumerator across random graphs, worker counts,
// strategies, balancing policies and seed levels.
func TestQuickParallelEqualsSequential(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 6 + rng.Intn(30)
		g := graph.RandomGNP(rng, n, 0.3+0.4*rng.Float64())
		lo := 2 + rng.Intn(3)
		workers := 1 + rng.Intn(5)
		strategy := enumcfg.Strategy(rng.Intn(2))
		policy := sched.Policy{RelTolerance: []float64{0, 0.01, 0.5}[rng.Intn(3)]}

		seq := &clique.Collector{}
		if _, err := hybrid.Enumerate(g, enumcfg.Config{Lo: lo}, core.Hooks{Reporter: seq}); err != nil {
			return false
		}
		opts := parallel.Options{Workers: workers, Lo: lo, Strategy: strategy, Policy: policy}
		p, err := parallel.NewPool(g, opts)
		if err != nil {
			return false
		}
		defer p.Close()
		par := &clique.Collector{}
		lvl, homes, err := core.Seed(context.Background(), g, lo, workers, false, par, nil)
		if err != nil {
			return false
		}
		if err := (&core.Loop{Hooks: core.Hooks{Reporter: par}}).Run(p, lvl, homes); err != nil {
			return false
		}
		if ok, _ := clique.SameSets(seq.Cliques, par.Cliques); !ok {
			return false
		}
		bar := &clique.Collector{}
		opts.Reporter = bar
		if _, err := parallel.EnumerateBarrier(g, opts); err != nil {
			return false
		}
		ok, _ := clique.SameSets(seq.Cliques, bar.Cliques)
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// TestQuickWorkerCountInvariance: results must not depend on the worker
// count, even on the skewed planted workloads where balancing triggers.
func TestQuickWorkerCountInvariance(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		size := 5 + rng.Intn(5)
		g := graph.PlantedGraph(rng, size*4+10,
			[]graph.PlantedCliqueSpec{{Size: size}, {Size: size - 1, Overlap: 2}},
			10+rng.Intn(40))
		var first []clique.Clique
		for _, workers := range []int{1, 3, 6} {
			col := &clique.Collector{}
			if _, err := hybrid.Enumerate(g, enumcfg.Config{
				Workers:  workers,
				Strategy: enumcfg.Affinity,
			}, core.Hooks{Reporter: col}); err != nil {
				return false
			}
			if first == nil {
				first = col.Cliques
				continue
			}
			if ok, _ := clique.SameSets(first, col.Cliques); !ok {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}
