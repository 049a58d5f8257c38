// Package graph provides the undirected-graph substrate for the clique
// enumeration framework of Zhang et al. (SC 2005).
//
// Adjacency is stored as one dense bit string per vertex (package bitset),
// exactly the "globally addressable bitmap memory index" of the paper:
// the neighborhood row of vertex v is the bit string whose i-th bit is 1
// iff (v,i) is an edge.  Common neighbors of a clique are then the AND of
// the member rows, and every algorithm in the framework — the Clique
// Enumerator itself, the Bron–Kerbosch baselines, the k-clique seeder and
// the vertex-cover reductions — works over these rows.
//
// Vertices are dense integer indices [0, N()).  Self-loops are rejected.
// Graphs are mutable during construction and treated as immutable by the
// algorithm packages.
package graph

import (
	"fmt"

	"repro/internal/bitset"
)

// Graph is an undirected simple graph over vertices [0, n) with bitmap
// adjacency rows.
type Graph struct {
	n     int
	m     int
	adj   []*bitset.Bitset
	names []string // optional vertex labels (gene/probe-set IDs)
}

// New returns an edgeless graph on n vertices.
func New(n int) *Graph {
	if n < 0 {
		panic("graph: negative vertex count")
	}
	g := &Graph{n: n, adj: make([]*bitset.Bitset, n)}
	for i := range g.adj {
		g.adj[i] = bitset.New(n)
	}
	return g
}

// N returns the number of vertices.
func (g *Graph) N() int { return g.n }

// M returns the number of edges.
func (g *Graph) M() int { return g.m }

// check panics with a clear diagnostic when v is outside the vertex
// universe.  Every mutating and edge-probing entry point funnels through
// it, so a bad index reports "vertex 12 out of range [0,10)" instead of a
// bare slice index panic from deep inside the bitset layer.  (The
// streaming Builder returns errors instead; use it when indices come from
// untrusted input.)
func (g *Graph) check(v int) {
	if v < 0 || v >= g.n {
		panic(fmt.Sprintf("graph: vertex %d out of range [0,%d)", v, g.n))
	}
}

// AddEdge inserts the undirected edge (u,v).  Inserting an existing edge
// is a no-op; self-loops and out-of-range vertices panic (the streaming
// Builder reports both as errors instead).
func (g *Graph) AddEdge(u, v int) {
	g.check(u)
	g.check(v)
	if u == v {
		panic(fmt.Sprintf("graph: self-loop at %d", u))
	}
	if g.adj[u].Test(v) {
		return
	}
	g.adj[u].Set(v)
	g.adj[v].Set(u)
	g.m++
}

// RemoveEdge deletes the undirected edge (u,v) if present.
func (g *Graph) RemoveEdge(u, v int) {
	g.check(u)
	g.check(v)
	if u == v || !g.adj[u].Test(v) {
		return
	}
	g.adj[u].Clear(v)
	g.adj[v].Clear(u)
	g.m--
}

// HasEdge reports whether (u,v) is an edge.
//
//repro:hotpath
func (g *Graph) HasEdge(u, v int) bool {
	g.check(u)
	g.check(v)
	if u == v {
		return false
	}
	return g.adj[u].Test(v)
}

// Neighbors returns the adjacency bit string of v.  The returned set is
// the graph's internal row: callers must not modify it.
//
//repro:hotpath
func (g *Graph) Neighbors(v int) *bitset.Bitset { return g.adj[v] }

// Row returns the adjacency row of v as a read-only view (the dense row
// is its own bitset.Reader).  Part of the graph.Interface contract.
//
//repro:hotpath
func (g *Graph) Row(v int) bitset.Reader { return g.adj[v] }

// Materialize overwrites dst with the neighbor set of v.  Part of the
// graph.Interface contract; for the dense representation it is one
// word-level copy.
//
//repro:hotpath
func (g *Graph) Materialize(v int, dst *bitset.Bitset) { dst.CopyFrom(g.adj[v]) }

// Bytes returns the measured adjacency footprint: n rows of ceil(n/64)
// words, as actually allocated.
func (g *Graph) Bytes() int64 {
	var b int64
	for _, row := range g.adj {
		b += int64(row.Bytes())
	}
	return b
}

// Representation identifies the dense backend.
func (g *Graph) Representation() Representation { return Dense }

// nameSlice exposes the raw label slice for representation conversions.
func (g *Graph) nameSlice() []string { return g.names }

// Degree returns the number of neighbors of v.
func (g *Graph) Degree(v int) int { return g.adj[v].Count() }

// SetName attaches a label (e.g. a probe-set ID) to vertex v.
func (g *Graph) SetName(v int, name string) {
	if g.names == nil {
		g.names = make([]string, g.n)
	}
	g.names[v] = name
}

// Name returns the label of v, or "v<index>" if none was set.
func (g *Graph) Name(v int) string {
	if g.names != nil && g.names[v] != "" {
		return g.names[v]
	}
	return fmt.Sprintf("v%d", v)
}

// Edge is an undirected edge in canonical (U < V) order.
type Edge struct{ U, V int }

// Clone returns a deep copy of the graph.
func (g *Graph) Clone() *Graph {
	c := &Graph{n: g.n, m: g.m, adj: make([]*bitset.Bitset, g.n)}
	for i := range g.adj {
		c.adj[i] = g.adj[i].Clone()
	}
	if g.names != nil {
		c.names = append([]string(nil), g.names...)
	}
	return c
}

// Complement returns the complement graph: (u,v) is an edge iff it is not
// an edge of g.  Used by the FPT pipeline, which solves maximum clique as
// vertex cover on the complement.
func (g *Graph) Complement() *Graph {
	c := New(g.n)
	row := bitset.New(g.n)
	for v := 0; v < g.n; v++ {
		row.Not(g.adj[v])
		row.Clear(v) // no self-loops
		c.adj[v].CopyFrom(row)
	}
	// Recount edges once rather than per insertion.
	m := 0
	for v := 0; v < g.n; v++ {
		m += c.adj[v].Count()
	}
	c.m = m / 2
	return c
}

// InducedSubgraph returns the subgraph induced by the given vertices plus
// the mapping from new indices to original vertex IDs.  Vertex order is
// preserved (ascending original index), keeping canonical clique order
// meaningful across the reduction.
func (g *Graph) InducedSubgraph(vertices *bitset.Bitset) (*Graph, []int) {
	if vertices.Len() != g.n {
		panic("graph: vertex-set universe mismatch")
	}
	old2new := make([]int, g.n)
	for i := range old2new {
		old2new[i] = -1
	}
	newToOld := vertices.Indices()
	for ni, ov := range newToOld {
		old2new[ov] = ni
	}
	sub := New(len(newToOld))
	if g.names != nil {
		sub.names = make([]string, len(newToOld))
	}
	scratch := bitset.New(g.n)
	for ni, ov := range newToOld {
		if g.names != nil {
			sub.names[ni] = g.names[ov]
		}
		scratch.And(g.adj[ov], vertices)
		scratch.ForEach(func(ou int) bool {
			nu := old2new[ou]
			if nu > ni {
				sub.AddEdge(ni, nu)
			}
			return true
		})
	}
	return sub, newToOld
}
