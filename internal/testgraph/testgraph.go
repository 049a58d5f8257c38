// Package testgraph is the named table of adversarial graphs the
// enumeration backends are checked on against an independent oracle
// (internal/bk): the extremal families whose clique counts are known in
// closed form, the degenerate inputs, vertex counts on both sides of the
// 64-bit word boundary of every bitmap in the tree, an edge list the way
// a hostile file states it, and planted cliques sitting exactly on the
// size bounds of a run.  It is a table, not a generator: every entry
// states what the answer is, and the package's own test holds the table
// to the oracle.
package testgraph

import (
	"fmt"

	"repro/internal/graph"
)

// Graph is one entry of the table.
type Graph struct {
	Name string
	// N is the vertex count, M the number of distinct undirected edges
	// (Edges may list more).
	N, M int
	// MaximalCliques counts the maximal cliques of every size; an isolated
	// vertex is a maximal 1-clique.  Omega is the size of the largest
	// (0 for the graph without vertices).
	MaximalCliques int
	Omega          int
	// Lo and Hi, when set, are size bounds a differential run should also
	// use: the entry has cliques sitting on both sides of each.
	Lo, Hi int
	// Edges lists the edges as an input would: duplicates, both
	// orientations and self-loops stay in.
	Edges [][2]int
}

// Build returns the dense graph of the entry.  Duplicate edges collapse
// and self-loops are left out — every ingestion path of the library
// rejects them with an error, which the package's test pins.
func (tg Graph) Build() *graph.Graph {
	g := graph.New(tg.N)
	for _, e := range tg.Edges {
		if e[0] != e[1] {
			g.AddEdge(e[0], e[1])
		}
	}
	return g
}

// All returns the table.
func All() []Graph {
	table := []Graph{
		{Name: "empty"},
		{Name: "single-vertex", N: 1, MaximalCliques: 1, Omega: 1},
		{Name: "edgeless-5", N: 5, MaximalCliques: 5, Omega: 1},
		// Moon–Moser: K_{3,3,3,3} has 3^(n/3) maximal cliques, the most a
		// graph on n vertices can have.
		multipartite("moon-moser-12", 3, 3, 3, 3),
		multipartite("multipartite-2-3-4", 2, 3, 4),
		multipartite("multipartite-1-1-5", 1, 1, 5),
		{
			// A triangle with a tail and an isolated vertex, every edge
			// stated twice or more and in both orientations, and two
			// self-loops.
			Name: "duplicates-and-self-loops", N: 6, M: 5, MaximalCliques: 4, Omega: 3,
			Edges: [][2]int{{0, 1}, {1, 0}, {1, 2}, {2, 2}, {0, 2}, {2, 0}, {0, 2}, {2, 3}, {3, 4}, {4, 3}, {5, 5}, {1, 2}},
		},
		plantedAtBounds(),
	}
	// Both sides of the word boundaries: every window of four consecutive
	// vertices of a ring is a clique, so cliques straddle bits 63|64 and
	// 127|128 and wrap around the last word's unused tail.
	for _, n := range []int{63, 64, 65, 127, 128} {
		table = append(table, ring(n))
	}
	return table
}

// multipartite returns the complete multipartite graph with the given
// part sizes: one maximal clique per choice of a vertex from every part.
func multipartite(name string, parts ...int) Graph {
	tg := Graph{Name: name, MaximalCliques: 1, Omega: len(parts)}
	var part []int // part of each vertex
	for p, size := range parts {
		tg.MaximalCliques *= size
		for range size {
			part = append(part, p)
		}
	}
	tg.N = len(part)
	for u := range part {
		for v := u + 1; v < tg.N; v++ {
			if part[u] != part[v] {
				tg.Edges = append(tg.Edges, [2]int{u, v})
			}
		}
	}
	tg.M = len(tg.Edges)
	return tg
}

// ring returns the circulant graph on n >= 8 vertices in which each
// vertex is adjacent to the three on either side of it: its maximal
// cliques are the n windows of four consecutive vertices.
func ring(n int) Graph {
	tg := Graph{Name: fmt.Sprintf("ring-%d", n), N: n, M: 3 * n, MaximalCliques: n, Omega: 4}
	for u := range n {
		for d := 1; d <= 3; d++ {
			tg.Edges = append(tg.Edges, [2]int{u, (u + d) % n})
		}
	}
	return tg
}

// plantedAtBounds returns disjoint cliques of sizes 3, 4, 6 and 7 chained
// by single edges, to be enumerated with bounds [4, 6]: a clique one
// below Lo, one at Lo, one at Hi and one above it, whose 6-subsets must
// not be mistaken for maximal cliques when the run stops at Hi.
func plantedAtBounds() Graph {
	tg := Graph{Name: "planted-at-bounds", Lo: 4, Hi: 6, Omega: 7}
	last := -1 // a vertex of the clique planted before
	for _, size := range []int{3, 4, 6, 7} {
		first := tg.N
		for u := first; u < first+size; u++ {
			for v := u + 1; v < first+size; v++ {
				tg.Edges = append(tg.Edges, [2]int{u, v})
			}
		}
		if last >= 0 {
			tg.Edges = append(tg.Edges, [2]int{last, first}) // a bridge: a maximal 2-clique
			tg.MaximalCliques++
		}
		tg.MaximalCliques++
		tg.N += size
		last = first + size - 1
	}
	tg.M = len(tg.Edges)
	return tg
}
