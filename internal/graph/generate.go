package graph

import (
	"fmt"
	"math/rand"
)

// The generators in this file produce the synthetic stand-ins for the
// paper's microarray-derived graphs (see DESIGN.md §9).  All take an
// explicit *rand.Rand so experiments are reproducible from a seed, as the
// paper's 10-repetition methodology requires.

// RandomGNM returns a uniform random graph with exactly n vertices and m
// edges (Erdős–Rényi G(n,m)).
func RandomGNM(rng *rand.Rand, n, m int) *Graph {
	maxM := n * (n - 1) / 2
	if m > maxM {
		panic(fmt.Sprintf("graph: G(n,m) with m=%d > max %d", m, maxM))
	}
	g := New(n)
	for g.M() < m {
		u := rng.Intn(n)
		v := rng.Intn(n)
		if u != v {
			g.AddEdge(u, v)
		}
	}
	return g
}

// RandomGNP returns an Erdős–Rényi G(n,p) graph: each pair is an edge
// independently with probability p.
func RandomGNP(rng *rand.Rand, n int, p float64) *Graph {
	g := New(n)
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			if rng.Float64() < p {
				g.AddEdge(u, v)
			}
		}
	}
	return g
}

// PlantClique overlays a clique on the given vertices of g.
func PlantClique(g *Graph, vertices []int) {
	for i := 0; i < len(vertices); i++ {
		for j := i + 1; j < len(vertices); j++ {
			g.AddEdge(vertices[i], vertices[j])
		}
	}
}

// PlantedCliqueSpec describes one planted module for PlantedGraph.
type PlantedCliqueSpec struct {
	Size    int // vertices in the clique
	Overlap int // how many vertices are shared with the previous module
}

// PlantedGraph builds the synthetic microarray-style correlation graphs
// used throughout the reproduction: a chain of planted cliques (gene
// modules), each optionally overlapping its predecessor, on top of a
// sparse random background.  The first module is the largest and, as long
// as backgroundEdges keeps the background density far below the clique
// threshold, it is the maximum clique of the result (the paper's graphs
// have ω = 17, 110 and 28 from exactly this kind of module structure).
//
// Module vertices are chosen at spread positions (not a contiguous block)
// so that canonical vertex order does not accidentally align with clique
// membership, which would flatter ordered algorithms.
func PlantedGraph(rng *rand.Rand, n int, modules []PlantedCliqueSpec, backgroundEdges int) *Graph {
	g := New(n)
	perm := rng.Perm(n)
	next := 0
	take := func(k int) []int {
		if next+k > n {
			panic("graph: planted modules exceed vertex budget")
		}
		vs := perm[next : next+k]
		next += k
		return append([]int(nil), vs...)
	}
	var prev []int
	for mi, spec := range modules {
		if spec.Size < 2 {
			panic(fmt.Sprintf("graph: module %d size %d < 2", mi, spec.Size))
		}
		ov := spec.Overlap
		if mi == 0 {
			ov = 0
		}
		if ov > spec.Size {
			ov = spec.Size
		}
		if ov > len(prev) {
			ov = len(prev)
		}
		members := make([]int, 0, spec.Size)
		members = append(members, prev[:ov]...)
		members = append(members, take(spec.Size-ov)...)
		PlantClique(g, members)
		prev = members
	}
	// Sparse background noise (correlations that pass threshold by chance).
	for added := 0; added < backgroundEdges; {
		u := rng.Intn(n)
		v := rng.Intn(n)
		if u == v || g.HasEdge(u, v) {
			continue
		}
		g.AddEdge(u, v)
		added++
	}
	return g
}
