package core_test

import (
	"testing"

	"repro/internal/core"
	"repro/internal/expt"
)

// TestSeedAllocs pins the k-clique seeder's allocation-free search: a
// seed of graph C at Init_K 6 visits thousands of search nodes, and its
// allocations — the peel, the searcher's per-depth bitmaps, the level
// store's chunks and the group buffers' growth — must not depend on how
// many.
func TestSeedAllocs(t *testing.T) {
	g := expt.Build(expt.SpecC.Scale(0.3), 1)
	_, st, err := core.SeedFromKMode(g, 6, core.CNRecompute, nil)
	if err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(5, func() {
		if _, _, err := core.SeedFromKMode(g, 6, core.CNRecompute, nil); err != nil {
			t.Fatal(err)
		}
	})
	if st.SearchNodes < 1000 {
		t.Fatalf("only %d search nodes: graph too easy to pin allocations", st.SearchNodes)
	}
	if allocs > 64 {
		t.Errorf("seeding allocates %.0f objects a call over %d search nodes; want <= 64", allocs, st.SearchNodes)
	}
	t.Logf("%.0f allocs a call, %d search nodes, %d groups", allocs, st.SearchNodes, st.Groups)
}
