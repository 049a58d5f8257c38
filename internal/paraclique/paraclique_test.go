package paraclique

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/graph"
)

// almostClique builds a k-clique with a few edges removed plus one
// perfectly attached extra vertex cluster.
func almostClique(t *testing.T) *graph.Graph {
	t.Helper()
	g := graph.New(12)
	verts := []int{0, 1, 2, 3, 4, 5, 6, 7}
	graph.PlantClique(g, verts)
	// Vertex 8 adjacent to 7 of the 8 members (misses 0): a paraclique
	// member at glom <= 7/8 once, but not a clique member.
	for _, v := range []int{1, 2, 3, 4, 5, 6, 7} {
		g.AddEdge(8, v)
	}
	// Vertex 9 adjacent to only 2 members: never gloms at high factors.
	g.AddEdge(9, 0)
	g.AddEdge(9, 1)
	return g
}

func TestOneGlomsNearMember(t *testing.T) {
	g := almostClique(t)
	seed := []int{0, 1, 2, 3, 4, 5, 6, 7}
	p := One(g, seed, 0.8)
	found := false
	for _, v := range p.Vertices {
		if v == 8 {
			found = true
		}
		if v == 9 {
			t.Error("vertex 9 glommed at 0.8")
		}
	}
	if !found {
		t.Error("vertex 8 (7/8 adjacency) not glommed at 0.8")
	}
	if p.CoreSize != 8 {
		t.Errorf("CoreSize = %d", p.CoreSize)
	}
	if p.Density < 0.9 {
		t.Errorf("density = %.2f", p.Density)
	}
}

func TestOneStrictGlomIsCliqueGrowth(t *testing.T) {
	g := almostClique(t)
	seed := []int{0, 1, 2, 3, 4, 5, 6, 7}
	p := One(g, seed, 1.0)
	for _, v := range p.Vertices {
		if v == 8 {
			t.Error("vertex 8 joined at glom=1 despite missing an edge")
		}
	}
	if len(p.Vertices) != 8 {
		t.Errorf("vertices = %v", p.Vertices)
	}
	if p.Density != 1 {
		t.Errorf("density = %v", p.Density)
	}
}

func TestOneBadGlomPanics(t *testing.T) {
	g := graph.New(3)
	for _, glom := range []float64{0, -0.5, 1.5, math.NaN()} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("glom=%v accepted", glom)
				}
			}()
			One(g, []int{0}, glom)
		}()
	}
}

func TestExtractDecomposesModules(t *testing.T) {
	rng := rand.New(rand.NewSource(101))
	g := graph.PlantedGraph(rng, 60, []graph.PlantedCliqueSpec{
		{Size: 10}, {Size: 7}, {Size: 5},
	}, 30)
	ps := Extract(g, Options{Glom: 0.9})
	if len(ps) < 3 {
		t.Fatalf("found %d paracliques, want >= 3", len(ps))
	}
	if ps[0].CoreSize != 10 || ps[1].CoreSize < 7 {
		t.Errorf("core sizes: %d, %d", ps[0].CoreSize, ps[1].CoreSize)
	}
	// Paracliques must be disjoint (vertices are removed between rounds).
	seen := map[int]bool{}
	for _, p := range ps {
		for _, v := range p.Vertices {
			if seen[v] {
				t.Fatalf("vertex %d in two paracliques", v)
			}
			seen[v] = true
		}
	}
}

func TestExtractMaxParacliques(t *testing.T) {
	rng := rand.New(rand.NewSource(102))
	g := graph.PlantedGraph(rng, 40, []graph.PlantedCliqueSpec{
		{Size: 6}, {Size: 5}, {Size: 4},
	}, 20)
	ps := Extract(g, Options{MaxParacliques: 2})
	if len(ps) != 2 {
		t.Errorf("got %d paracliques, want 2", len(ps))
	}
}

func TestExtractMinCliqueSize(t *testing.T) {
	rng := rand.New(rand.NewSource(103))
	g := graph.PlantedGraph(rng, 30, []graph.PlantedCliqueSpec{{Size: 6}}, 10)
	ps := Extract(g, Options{MinCliqueSize: 7})
	if len(ps) != 0 {
		t.Errorf("found %d paracliques above a min size larger than ω", len(ps))
	}
}

func TestExtractDefaultsAndDensity(t *testing.T) {
	rng := rand.New(rand.NewSource(104))
	g := graph.PlantedGraph(rng, 50, []graph.PlantedCliqueSpec{{Size: 8}}, 40)
	ps := Extract(g, Options{})
	if len(ps) == 0 {
		t.Fatal("no paracliques with defaults")
	}
	for _, p := range ps {
		if p.Density < 0.5 || p.Density > 1 {
			t.Errorf("density %v out of range", p.Density)
		}
		for i := 1; i < len(p.Vertices); i++ {
			if p.Vertices[i] <= p.Vertices[i-1] {
				t.Fatalf("vertices not canonical: %v", p.Vertices)
			}
		}
	}
}
