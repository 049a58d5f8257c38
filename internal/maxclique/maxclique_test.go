package maxclique

import (
	"context"
	"errors"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/bk"
	"repro/internal/clique"
	"repro/internal/graph"
	"repro/internal/membudget"
	"repro/internal/vc"
)

func TestTrivialGraphs(t *testing.T) {
	if c := Find(graph.New(0)); len(c) != 0 {
		t.Errorf("empty graph: %v", c)
	}
	if c := Find(graph.New(3)); len(c) != 1 {
		t.Errorf("edgeless: %v (one vertex is a 1-clique)", c)
	}
	g := graph.New(2)
	g.AddEdge(0, 1)
	if c := Find(g); len(c) != 2 {
		t.Errorf("K2: %v", c)
	}
}

func TestCompleteGraph(t *testing.T) {
	g := graph.New(10)
	verts := make([]int, 10)
	for i := range verts {
		verts[i] = i
	}
	graph.PlantClique(g, verts)
	c := Find(g)
	if len(c) != 10 {
		t.Errorf("K10: %v", c)
	}
}

func TestAgainstBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(91))
	for trial := 0; trial < 50; trial++ {
		g := graph.RandomGNP(rng, 3+rng.Intn(14), []float64{0.3, 0.5, 0.8}[trial%3])
		c := Find(g)
		if !graph.IsClique(g, c) {
			t.Fatalf("trial %d: %v not a clique", trial, c)
		}
		if want := clique.BruteForceMaxCliqueSize(g); len(c) != want {
			t.Fatalf("trial %d: ω = %d, want %d", trial, len(c), want)
		}
	}
}

func TestAgreesWithVCRoute(t *testing.T) {
	rng := rand.New(rand.NewSource(92))
	for trial := 0; trial < 20; trial++ {
		g := graph.RandomGNP(rng, 3+rng.Intn(12), 0.5)
		bb := Find(g)
		viaVC := vc.MaxCliqueViaVC(g)
		if len(bb) != len(viaVC) {
			t.Fatalf("trial %d: BB ω=%d, VC ω=%d", trial, len(bb), len(viaVC))
		}
	}
}

func TestPlantedCliqueRecovered(t *testing.T) {
	rng := rand.New(rand.NewSource(93))
	g := graph.PlantedGraph(rng, 400, []graph.PlantedCliqueSpec{{Size: 20}}, 800)
	c, st := FindStats(g)
	if len(c) != 20 {
		t.Fatalf("planted ω=20, found %d", len(c))
	}
	if !graph.IsClique(g, c) {
		t.Fatal("result not a clique")
	}
	if st.Nodes == 0 {
		t.Error("no nodes recorded")
	}
}

// TestFindContext covers the cancellable entry point: a live context
// returns exactly what Find returns, a pre-canceled one is refused at
// entry, and a cancellation mid-search unwinds the branch-and-bound
// promptly instead of running the worst-case-exponential tree to
// completion (the /maxclique disconnect path).
func TestFindContext(t *testing.T) {
	rng := rand.New(rand.NewSource(96))
	small := graph.RandomGNP(rng, 20, 0.5)
	got, err := FindContext(context.Background(), small)
	if err != nil {
		t.Fatal(err)
	}
	if want := Find(small); len(got) != len(want) {
		t.Fatalf("FindContext ω=%d, Find ω=%d", len(got), len(want))
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := FindContext(ctx, small); !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-canceled search: err = %v, want context.Canceled", err)
	}

	// A dense instance far too hard to finish in the allotted window:
	// only the in-search cancellation poll can bring the call back.
	hard := graph.RandomGNP(rng, 250, 0.85)
	hctx, hcancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := FindContext(hctx, hard)
		done <- err
	}()
	time.Sleep(20 * time.Millisecond)
	hcancel()
	select {
	case err := <-done:
		if err != nil && !errors.Is(err, context.Canceled) {
			t.Fatalf("canceled search: err = %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("search ignored cancellation")
	}
}

func TestMoonMoser(t *testing.T) {
	// K_{3,3,3}: ω = 3 despite 27 maximal cliques.
	g := graph.New(9)
	for u := 0; u < 9; u++ {
		for v := u + 1; v < 9; v++ {
			if u/3 != v/3 {
				g.AddEdge(u, v)
			}
		}
	}
	if got := Size(g); got != 3 {
		t.Errorf("Moon-Moser ω = %d, want 3", got)
	}
}

func TestResultCanonical(t *testing.T) {
	rng := rand.New(rand.NewSource(94))
	g := graph.RandomGNP(rng, 15, 0.6)
	c := Find(g)
	for i := 1; i < len(c); i++ {
		if c[i] <= c[i-1] {
			t.Fatalf("result not canonical: %v", c)
		}
	}
}

// lexMinMaximum is the oracle of the search's contract: the
// lexicographically smallest of g's largest maximal cliques, from Improved BK.
func lexMinMaximum(g graph.Interface) []int {
	var best []int
	for _, c := range bk.MaximalCliques(g, bk.Improved) {
		if len(c) > len(best) || len(c) == len(best) && slices.Compare(c, best) < 0 {
			best = slices.Clone(c)
		}
	}
	return best
}

// TestLexMinAgainstOracle: Find returns the lexicographically smallest
// maximum clique on every representation, edgeless graphs ([0]) included.
func TestLexMinAgainstOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(97))
	for trial := range 420 {
		n, p := 3+rng.Intn(58), 0.1+0.7*rng.Float64()
		d := graph.RandomGNP(rng, n, p)
		if trial%40 == 0 {
			d = graph.New(n)
		}
		want := lexMinMaximum(d)
		for _, rep := range []graph.Representation{graph.Dense, graph.CSR, graph.Compressed} {
			g, err := graph.Convert(d, rep)
			if err != nil {
				t.Fatal(err)
			}
			if got := Find(g); !slices.Equal(got, want) {
				t.Fatalf("trial %d (n %d, p %.2f, %s): Find = %v, want %v", trial, n, p, rep, got, want)
			}
		}
	}
}

// TestHubRowsStayBounded: a CSR graph whose first vertex is a hub
// adjacent to nearly all others, so the second pass enters the hub's
// neighbourhood first.  The governor's peak stays within Bytes, the rows
// within the rank table's 4n bytes, and the governor ends where it began.
func TestHubRowsStayBounded(t *testing.T) {
	const n, d = 1200, 1110
	ref := graph.RandomGNP(rand.New(rand.NewSource(363)), n, 0.005)
	for v := 1; v <= d; v++ {
		ref.AddEdge(0, v)
	}
	g, err := graph.Convert(ref, graph.CSR)
	if err != nil {
		t.Fatal(err)
	}
	gov := membudget.New(0)
	s := newSearcher(context.Background(), g, gov)
	got, err := s.run(g)
	if err != nil {
		t.Fatal(err)
	}
	if want := lexMinMaximum(g); !slices.Equal(got, want) {
		t.Fatalf("Find = %v, want %v", got, want)
	}
	if gov.Peak() > Bytes(g) {
		t.Errorf("peak %d bytes, over the bound %d", gov.Peak(), Bytes(g))
	}
	if rows := 8 * int64(cap(s.u.Rows)); rows > 4*n {
		t.Errorf("rows hold %d bytes, over 4n = %d", rows, 4*n)
	}
	if gov.Used() != 0 {
		t.Errorf("governor at %d after the search", gov.Used())
	}
}

// Property: ω is monotone under edge addition.
func TestQuickMonotoneUnderEdgeAddition(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := graph.RandomGNP(rng, 4+rng.Intn(10), 0.3)
		before := Size(g)
		// Add a random non-edge if one exists.
		for tries := 0; tries < 50; tries++ {
			u, v := rng.Intn(g.N()), rng.Intn(g.N())
			if u != v && !g.HasEdge(u, v) {
				g.AddEdge(u, v)
				break
			}
		}
		return Size(g) >= before
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func BenchmarkFindPlanted20(b *testing.B) {
	rng := rand.New(rand.NewSource(95))
	g := graph.PlantedGraph(rng, 400, []graph.PlantedCliqueSpec{{Size: 20}}, 800)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		Find(g)
	}
}
