package repro

import (
	"context"
	"testing"

	"repro/internal/graph"
)

// overlapGraph builds the quickstart structure: two overlapping modules.
func overlapGraph() *Graph {
	g := NewGraph(9)
	graph.PlantClique(g, []int{0, 1, 2, 3, 4})
	graph.PlantClique(g, []int{3, 4, 5, 6})
	g.AddEdge(6, 7)
	g.AddEdge(7, 8)
	return g
}

func TestFacadeMaxClique(t *testing.T) {
	g := overlapGraph()
	c := MaxClique(g)
	if len(c) != 5 {
		t.Fatalf("MaxClique = %v", c)
	}
	if MaxCliqueSize(g) != 5 {
		t.Fatal("MaxCliqueSize mismatch")
	}
}

func TestFacadeEnumerate(t *testing.T) {
	g := overlapGraph()
	var sizes []int
	enum := NewEnumerator(WithBounds(3, 0))
	n, err := enum.Run(context.Background(), g, ReporterFunc(func(c Clique) {
		sizes = append(sizes, len(c))
	}))
	if err != nil {
		t.Fatal(err)
	}
	if n != 2 || len(sizes) != 2 {
		t.Fatalf("n=%d sizes=%v", n, sizes)
	}
	if sizes[0] != 4 || sizes[1] != 5 {
		t.Errorf("sizes = %v, want [4 5] (non-decreasing)", sizes)
	}
	// Nil reporter counts only.
	n2, err := enum.Run(context.Background(), g, nil)
	if err != nil || n2 != 2 {
		t.Errorf("count-only: n=%d err=%v", n2, err)
	}
}

func TestFacadeEnumerateParallel(t *testing.T) {
	g := overlapGraph()
	n, err := NewEnumerator(WithBounds(3, 0), WithWorkers(2), WithStrategy(Affinity)).
		Run(context.Background(), g, nil)
	if err != nil {
		t.Fatal(err)
	}
	if n != 2 {
		t.Fatalf("parallel count = %d", n)
	}
}

func TestFacadeParacliques(t *testing.T) {
	g := overlapGraph()
	ps, err := NewEnumerator().Paracliques(context.Background(), g, 0.9)
	if err != nil {
		t.Fatal(err)
	}
	if len(ps) == 0 {
		t.Fatal("no paracliques")
	}
	if ps[0].CoreSize != 5 {
		t.Errorf("first core = %d", ps[0].CoreSize)
	}
}
