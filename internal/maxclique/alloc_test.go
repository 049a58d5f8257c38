package maxclique_test

import (
	"testing"

	"repro/internal/expt"
	"repro/internal/graph"
	"repro/internal/maxclique"
)

// TestFindAllocs pins the objects one search allocates on graph C's
// stand-ins, dense and CSR: the peel's tables, the universe and its growth
// as the search enters wider neighbourhoods — nothing per node.
func TestFindAllocs(t *testing.T) {
	for _, scale := range []float64{0.3, 0.6, 1} {
		d := expt.Build(expt.SpecC.Scale(scale), 1)
		for _, rep := range []graph.Representation{graph.Dense, graph.CSR} {
			g, err := graph.Convert(d, rep)
			if err != nil {
				t.Fatal(err)
			}
			if allocs := testing.AllocsPerRun(3, func() { maxclique.Find(g) }); allocs > 128 {
				t.Errorf("C×%.2f %s: %.0f objects a search, want at most 128", scale, rep, allocs)
			}
		}
	}
}
