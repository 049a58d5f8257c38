package core_test

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/expt"
	"repro/internal/graph"
	"repro/internal/membudget"
)

// TestSeedAllocs pins the k-clique seeder's allocation-free search: a
// seed of graph C at Init_K 6 visits thousands of search nodes, and its
// allocations — the peel, the searcher's per-depth bitmaps, the level
// store's chunks and the group buffers' growth — must not depend on how
// many.
func TestSeedAllocs(t *testing.T) {
	g := expt.Build(expt.SpecC.Scale(0.3), 1)
	_, _, st, err := core.SeedFromK(g, 6, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(5, func() {
		if _, _, _, err := core.SeedFromK(g, 6, 1, nil); err != nil {
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

// TestSeedLedger: a k-clique seed charges its search's scratch — the
// survivors' mask and each shard's universe, whose rank table alone is
// 4n bytes — while it runs, and the governor is back at its entry value
// when Seed returns: sequential and sharded, on dense and CSR, completed
// and canceled.
func TestSeedLedger(t *testing.T) {
	dense := expt.Build(expt.SpecC.Scale(0.3), 1)
	canceled, cancel := context.WithCancel(context.Background())
	cancel()
	for _, rep := range []graph.Representation{graph.Dense, graph.CSR} {
		g, err := graph.Convert(dense, rep)
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{1, 3} {
			for _, ctx := range []context.Context{context.Background(), canceled} {
				name := fmt.Sprintf("%v/workers=%d/canceled=%v", rep, workers, ctx.Err() != nil)
				gov := membudget.New(0)
				gov.Charge(1000) // the entry value: what the run held before the seed
				_, _, err := core.Seed(ctx, g, 5, workers, false, nil, gov)
				if canceledNow := ctx.Err() != nil; canceledNow != errors.Is(err, context.Canceled) {
					t.Fatalf("%s: seed returned %v", name, err)
				}
				if gov.Used() != 1000 {
					t.Errorf("%s: governor at %d after the seed, entry value 1000", name, gov.Used())
				}
				if rank := int64(4 * g.N()); ctx.Err() == nil && gov.Peak() < 1000+rank {
					t.Errorf("%s: peak %d, want at least the entry value and a %d-byte rank table", name, gov.Peak(), rank)
				}
				gov.Release(1000)
			}
		}
	}
}

// TestSeedRowsStayBounded: a hub first in the order has its seed branch
// through nearly every neighbour, and the rows of G[N(hub)] would take
// 1 110 rows of 18 words, 160 KB.  The seed's universe keeps its rows
// within the rank table's 4n bytes, so a shard holds at most 8n bytes
// beside N(v), its row slots (8 bytes a member) and its sets (four rows
// at k = 3), plus the peel's n-bit mask: 39 KB at two workers.
func TestSeedRowsStayBounded(t *testing.T) {
	const n, d = 1200, 1110
	ref := graph.RandomGNP(rand.New(rand.NewSource(363)), n, 0.005)
	for v := 1; v <= d; v++ {
		ref.AddEdge(0, v)
	}
	g, err := graph.Convert(ref, graph.CSR)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 2} {
		gov := membudget.New(0)
		if _, _, err := core.Seed(context.Background(), g, 3, workers, false, nil, gov); err != nil {
			t.Fatal(err)
		}
		deg := int64(g.Degree(0))
		if bound := int64(workers)*(8*n+8*deg+4*8*(deg+63)/64) + n/8; gov.Peak() > bound {
			t.Errorf("workers=%d: seed peak %d bytes, over %d", workers, gov.Peak(), bound)
		}
		if gov.Used() != 0 {
			t.Errorf("workers=%d: governor at %d after the seed", workers, gov.Used())
		}
	}
}
