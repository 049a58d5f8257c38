package testgraph

import (
	"testing"

	"repro/internal/bk"
	"repro/internal/graph"
)

// TestTableAgreesWithOracle holds every entry to what it states: vertex
// and distinct-edge counts as built, and clique count and ω as the
// Bron–Kerbosch oracle finds them.
func TestTableAgreesWithOracle(t *testing.T) {
	seen := map[string]bool{}
	for _, tg := range All() {
		if seen[tg.Name] {
			t.Errorf("duplicate entry %q", tg.Name)
		}
		seen[tg.Name] = true
		g := tg.Build()
		if g.N() != tg.N || g.M() != tg.M {
			t.Errorf("%s: built with %d vertices and %d edges, the table says %d and %d", tg.Name, g.N(), g.M(), tg.N, tg.M)
		}
		cliques := bk.MaximalCliques(g, bk.Improved)
		omega := 0
		for _, c := range cliques {
			omega = max(omega, len(c))
		}
		if len(cliques) != tg.MaximalCliques || omega != tg.Omega {
			t.Errorf("%s: the oracle finds %d maximal cliques, ω = %d; the table says %d, ω = %d",
				tg.Name, len(cliques), omega, tg.MaximalCliques, tg.Omega)
		}
		if base := bk.MaximalCliques(g, bk.Base); len(base) != len(cliques) {
			t.Errorf("%s: the two oracle variants disagree, %d and %d cliques", tg.Name, len(base), len(cliques))
		}
	}
}

// TestHostileEdgesAreRejectedOrCollapsed: what Build leaves out is what
// the library's ingestion refuses — a self-loop is an error that also
// fails the eventual Freeze — and what it lets through collapses: a
// builder fed the entry's duplicates freezes to the entry's edge count.
func TestHostileEdgesAreRejectedOrCollapsed(t *testing.T) {
	for _, tg := range All() {
		if tg.Name != "duplicates-and-self-loops" {
			continue
		}
		strict, lenient := graph.NewBuilder(tg.N), graph.NewBuilder(tg.N)
		loops := 0
		for _, e := range tg.Edges {
			if e[0] == e[1] {
				loops++
				if err := strict.AddEdge(e[0], e[1]); err == nil {
					t.Errorf("self-loop at %d accepted", e[0])
				}
				continue
			}
			if err := lenient.AddEdge(e[0], e[1]); err != nil {
				t.Fatal(err)
			}
		}
		if loops == 0 {
			t.Fatal("the entry lists no self-loop")
		}
		if _, err := strict.Freeze(); err == nil {
			t.Error("a builder that saw a self-loop froze")
		}
		g, err := lenient.Freeze()
		if err != nil {
			t.Fatal(err)
		}
		if g.M() != tg.M || len(tg.Edges)-loops <= tg.M {
			t.Errorf("%d stated edges froze to %d, the table says %d distinct", len(tg.Edges)-loops, g.M(), tg.M)
		}
		return
	}
	t.Fatal("no duplicates-and-self-loops entry")
}
