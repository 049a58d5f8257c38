package vc

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/clique"
	"repro/internal/graph"
)

// isCover verifies every edge has an endpoint in the cover.
func isCover(g *graph.Graph, cover []int) bool {
	in := make(map[int]bool, len(cover))
	for _, v := range cover {
		in[v] = true
	}
	ok := true
	graph.ForEachEdge(g, func(u, v int) bool {
		if !in[u] && !in[v] {
			ok = false
			return false
		}
		return true
	})
	return ok
}

// bruteMinCover finds the true minimum cover size by subset enumeration.
func bruteMinCover(g *graph.Graph) int {
	n := g.N()
	best := n
	for mask := 0; mask < 1<<uint(n); mask++ {
		var cover []int
		for v := 0; v < n; v++ {
			if mask&(1<<uint(v)) != 0 {
				cover = append(cover, v)
			}
		}
		if len(cover) < best && isCover(g, cover) {
			best = len(cover)
		}
	}
	return best
}

func TestDecideTrivial(t *testing.T) {
	g := graph.New(4)
	if cover, ok := Decide(g, 0); !ok || len(cover) != 0 {
		t.Error("edgeless graph needs no cover")
	}
	g.AddEdge(0, 1)
	if _, ok := Decide(g, 0); ok {
		t.Error("k=0 covers an edge")
	}
	if cover, ok := Decide(g, 1); !ok || len(cover) != 1 || !isCover(g, cover) {
		t.Errorf("K2 cover: %v %v", cover, ok)
	}
	if _, ok := Decide(g, -1); ok {
		t.Error("negative k accepted")
	}
}

func TestStarGraphDegree1Rule(t *testing.T) {
	// A star forces its center via the degree-1 rule with no branching.
	g := graph.New(8)
	for leaf := 1; leaf < 8; leaf++ {
		g.AddEdge(0, leaf)
	}
	cover, ok, st := DecideStats(g, 1)
	if !ok || len(cover) != 1 || cover[0] != 0 {
		t.Fatalf("star cover = %v, %v", cover, ok)
	}
	if st.BranchNodes > 1 {
		t.Errorf("star needed %d branch nodes; kernelization should solve it", st.BranchNodes)
	}
}

func TestHighDegreeRule(t *testing.T) {
	// Center of degree 5 with k=2: high-degree rule must take it.
	g := graph.New(8)
	for leaf := 1; leaf < 6; leaf++ {
		g.AddEdge(0, leaf)
	}
	g.AddEdge(6, 7)
	cover, ok := Decide(g, 2)
	if !ok || !isCover(g, cover) || len(cover) > 2 {
		t.Fatalf("cover = %v %v", cover, ok)
	}
}

func TestBussRejection(t *testing.T) {
	// A triangle-rich graph with tiny k: must reject quickly.
	g := graph.New(12)
	for u := 0; u < 12; u++ {
		for v := u + 1; v < 12; v++ {
			g.AddEdge(u, v)
		}
	}
	if _, ok := Decide(g, 3); ok {
		t.Error("K12 covered with 3 vertices")
	}
}

func TestMinimumCoverAgainstBrute(t *testing.T) {
	rng := rand.New(rand.NewSource(81))
	for trial := 0; trial < 40; trial++ {
		g := graph.RandomGNP(rng, 3+rng.Intn(10), 0.5)
		want := bruteMinCover(g)
		cover := MinimumCover(g)
		if len(cover) != want {
			t.Fatalf("trial %d: |cover| = %d, want %d", trial, len(cover), want)
		}
		if !isCover(g, cover) {
			t.Fatalf("trial %d: %v is not a cover", trial, cover)
		}
	}
}

func TestDecideMonotone(t *testing.T) {
	rng := rand.New(rand.NewSource(82))
	g := graph.RandomGNP(rng, 12, 0.4)
	min := len(MinimumCover(g))
	for k := 0; k < min; k++ {
		if _, ok := Decide(g, k); ok {
			t.Errorf("k=%d accepted below minimum %d", k, min)
		}
	}
	for k := min; k <= g.N(); k++ {
		cover, ok := Decide(g, k)
		if !ok {
			t.Errorf("k=%d rejected above minimum %d", k, min)
		}
		if !isCover(g, cover) {
			t.Errorf("k=%d produced a non-cover", k)
		}
	}
}

func TestMatchingLowerBound(t *testing.T) {
	// A perfect matching of 4 edges: lower bound 4, true minimum 4.
	g := graph.New(8)
	for i := 0; i < 8; i += 2 {
		g.AddEdge(i, i+1)
	}
	if lb := matchingLowerBound(g); lb != 4 {
		t.Errorf("matching bound = %d", lb)
	}
	if cover := MinimumCover(g); len(cover) != 4 {
		t.Errorf("min cover = %v", cover)
	}
}

func TestMaxCliqueViaVC(t *testing.T) {
	rng := rand.New(rand.NewSource(83))
	for trial := 0; trial < 25; trial++ {
		g := graph.RandomGNP(rng, 3+rng.Intn(9), 0.5)
		cliqueVerts := MaxCliqueViaVC(g)
		if !graph.IsClique(g, cliqueVerts) {
			t.Fatalf("trial %d: %v not a clique", trial, cliqueVerts)
		}
		if want := clique.BruteForceMaxCliqueSize(g); len(cliqueVerts) != want {
			t.Fatalf("trial %d: ω = %d, want %d", trial, len(cliqueVerts), want)
		}
	}
}

// Property: the complement identity ω(G) = n − τ(Ḡ) on random graphs.
func TestQuickComplementIdentity(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := graph.RandomGNP(rng, 2+rng.Intn(9), 0.5)
		tau := len(MinimumCover(g.Complement()))
		omega := clique.BruteForceMaxCliqueSize(g)
		return omega == g.N()-tau
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestStatsPopulated(t *testing.T) {
	rng := rand.New(rand.NewSource(84))
	g := graph.RandomGNP(rng, 14, 0.5)
	_, ok, st := DecideStats(g, g.N())
	if !ok {
		t.Fatal("cover of size n rejected")
	}
	if st.BranchNodes == 0 {
		t.Error("no branch nodes recorded")
	}
}

func BenchmarkMinimumCoverGNP20(b *testing.B) {
	rng := rand.New(rand.NewSource(85))
	g := graph.RandomGNP(rng, 20, 0.3)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		MinimumCover(g)
	}
}
