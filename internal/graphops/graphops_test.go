package graphops

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/graph"
)

func assays(seed int64, n, count int, p float64) []*graph.Graph {
	rng := rand.New(rand.NewSource(seed))
	gs := make([]*graph.Graph, count)
	for i := range gs {
		gs[i] = graph.RandomGNP(rng, n, p)
	}
	return gs
}

func TestIntersection(t *testing.T) {
	a := graph.New(4)
	a.AddEdge(0, 1)
	a.AddEdge(1, 2)
	b := graph.New(4)
	b.AddEdge(1, 2)
	b.AddEdge(2, 3)
	got := Intersection(a, b)
	if got.M() != 1 || !got.HasEdge(1, 2) {
		t.Errorf("intersection edges = %v", graph.Edges(got))
	}
}

func TestUnionAndDifference(t *testing.T) {
	a := graph.New(4)
	a.AddEdge(0, 1)
	b := graph.New(4)
	b.AddEdge(2, 3)
	u := Union(a, b)
	if u.M() != 2 || !u.HasEdge(0, 1) || !u.HasEdge(2, 3) {
		t.Errorf("union edges = %v", graph.Edges(u))
	}
	d := Difference(u, b)
	if d.M() != 1 || !d.HasEdge(0, 1) {
		t.Errorf("difference edges = %v", graph.Edges(d))
	}
}

func TestAtLeastKOfN(t *testing.T) {
	// Edge (0,1) in 3 assays, (1,2) in 2, (2,3) in 1.
	gs := make([]*graph.Graph, 3)
	for i := range gs {
		gs[i] = graph.New(4)
		gs[i].AddEdge(0, 1)
	}
	gs[0].AddEdge(1, 2)
	gs[1].AddEdge(1, 2)
	gs[2].AddEdge(2, 3)

	for k, wantEdges := range map[int][]graph.Edge{
		1: {{U: 0, V: 1}, {U: 1, V: 2}, {U: 2, V: 3}},
		2: {{U: 0, V: 1}, {U: 1, V: 2}},
		3: {{U: 0, V: 1}},
	} {
		got := AtLeastKOfN(k, gs...)
		if got.M() != len(wantEdges) {
			t.Errorf("k=%d: %d edges, want %d", k, got.M(), len(wantEdges))
		}
		for _, e := range wantEdges {
			if !got.HasEdge(e.U, e.V) {
				t.Errorf("k=%d: missing (%d,%d)", k, e.U, e.V)
			}
		}
	}
}

func TestAtLeastEdgeCases(t *testing.T) {
	gs := assays(1, 10, 4, 0.3)
	// k=1 equals union; k=n equals intersection.
	u := Union(gs...)
	if got := AtLeastKOfN(1, gs...); got.M() != u.M() {
		t.Errorf("k=1: %d edges, union has %d", got.M(), u.M())
	}
	in := Intersection(gs...)
	if got := AtLeastKOfN(len(gs), gs...); got.M() != in.M() {
		t.Errorf("k=n: %d edges, intersection has %d", got.M(), in.M())
	}
	for _, bad := range []int{0, 5} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("k=%d accepted", bad)
				}
			}()
			AtLeastKOfN(bad, gs...)
		}()
	}
}

func TestMismatchedUniversesPanic(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("universe mismatch accepted")
		}
	}()
	Intersection(graph.New(3), graph.New(4))
}

func TestNoGraphsPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("empty input accepted")
		}
	}()
	Union()
}

// Property: at-least-k edge counts are monotone decreasing in k, and the
// per-edge tally definition holds against direct counting.
func TestQuickAtLeastKCorrect(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(12)
		count := 1 + rng.Intn(6)
		gs := make([]*graph.Graph, count)
		for i := range gs {
			gs[i] = graph.RandomGNP(rng, n, 0.4)
		}
		for k := 1; k <= count; k++ {
			got := AtLeastKOfN(k, gs...)
			for u := 0; u < n; u++ {
				for v := u + 1; v < n; v++ {
					tally := 0
					for _, g := range gs {
						if g.HasEdge(u, v) {
							tally++
						}
					}
					if got.HasEdge(u, v) != (tally >= k) {
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

// Property: De Morgan-ish sanity — difference(union, b) ⊆ a.
func TestQuickDifferenceSubset(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(15)
		a := graph.RandomGNP(rng, n, 0.4)
		b := graph.RandomGNP(rng, n, 0.4)
		d := Difference(Union(a, b), b)
		ok := true
		graph.ForEachEdge(d, func(u, v int) bool {
			if !a.HasEdge(u, v) || b.HasEdge(u, v) {
				ok = false
				return false
			}
			return true
		})
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}
