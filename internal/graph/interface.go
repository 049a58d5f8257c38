package graph

import (
	"fmt"

	"repro/internal/bitset"
)

// Representation names an adjacency storage backend.  The paper's central
// trade-off (§2.1, §5) is that the dense bit-string index is what makes
// the Clique Enumerator fast *and* what makes it memory-bound at genome
// scale; the pluggable representation layer lets each workload pick its
// memory/speed point — or lets the Builder pick one from measured density.
type Representation int

const (
	// Auto lets Builder.Freeze (and Convert) choose whichever of Dense
	// and CSR takes fewer adjacency bytes.  Compressed is never chosen
	// automatically: its wins are workload-specific, so it is opt-in.
	Auto Representation = iota
	// Dense stores one n-bit bitmap row per vertex — the paper's
	// "globally addressable bitmap memory index".  Fastest row algebra,
	// n*ceil(n/64)*8 bytes of adjacency.
	Dense
	// CSR stores sorted compressed-sparse-row adjacency: 4(n+1+2m)
	// bytes.  Rows are materialized into dense scratch only on demand.
	CSR
	// Compressed stores one WAH-compressed bitmap row per vertex
	// (package wah) — the paper's §5 future-work direction, previously
	// used only for common-neighbor storage.
	Compressed
)

// String names the representation for flags and diagnostics.
func (r Representation) String() string {
	switch r {
	case Auto:
		return "auto"
	case Dense:
		return "dense"
	case CSR:
		return "csr"
	case Compressed:
		return "wah"
	}
	return fmt.Sprintf("representation(%d)", int(r))
}

// ParseRepresentation parses the names String produces ("auto", "dense",
// "csr", "wah"; "compressed" is accepted as an alias of "wah").
func ParseRepresentation(s string) (Representation, error) {
	switch s {
	case "auto":
		return Auto, nil
	case "dense":
		return Dense, nil
	case "csr":
		return CSR, nil
	case "wah", "compressed":
		return Compressed, nil
	}
	return Auto, fmt.Errorf("graph: unknown representation %q (want auto, dense, csr or wah)", s)
}

// Valid reports whether r is a known representation.
func (r Representation) Valid() bool { return r >= Auto && r <= Compressed }

// Interface is the representation-independent read contract all
// algorithm packages consume.  *Graph (dense), *CSRGraph and
// *CompressedGraph implement it.  Implementations are immutable once
// obtained from Builder.Freeze or Convert; the dense *Graph retains its
// historical mutating methods for construction, and the algorithm
// packages treat every Interface value as frozen.
//
// Row is the hot-path contract: it returns the adjacency row of v as a
// bitset.Reader without materializing (dense rows are their own Reader;
// CSR and WAH rows are pre-built zero-allocation views).  Materialize is
// the escape hatch for callers that need a private dense copy of a row
// (e.g. per-sub-list common-neighbor bitmaps): it overwrites dst with
// N(v).
type Interface interface {
	// N returns the number of vertices.
	N() int
	// M returns the number of edges.
	M() int
	// Degree returns the number of neighbors of v.
	Degree(v int) int
	// HasEdge reports whether (u,v) is an edge.
	HasEdge(u, v int) bool
	// Name returns the label of v, or "v<index>" if none was set.
	Name(v int) string
	// Row returns the adjacency row of v as a read-only view.  The view
	// is owned by the graph: it is valid for the graph's lifetime and
	// must not be written through.
	Row(v int) bitset.Reader
	// Materialize overwrites dst (a bitset over [0, N())) with the
	// neighbor set of v.
	Materialize(v int, dst *bitset.Bitset)
	// Bytes returns the measured adjacency footprint of the
	// representation in bytes — the quantity the paper's memory
	// accounting and the representation benchmarks compare.
	Bytes() int64
	// Representation identifies the storage backend.
	Representation() Representation
}

// namer is the internal contract for transplanting vertex labels between
// representations without inventing default "v<i>" names.
type namer interface{ nameSlice() []string }

// DenseAdjacencyBytes returns the adjacency footprint of the dense
// representation on n vertices — n rows of ceil(n/64) words — without
// allocating it.  This is the baseline the CSR/WAH memory wins are
// measured against.
func DenseAdjacencyBytes(n int) int64 {
	return int64(n) * int64((n+63)/64) * 8
}

// CSRAdjacencyBytes returns the adjacency footprint of the CSR
// representation on n vertices and m edges: a 4-byte row pointer per
// vertex (plus one) and two 4-byte column entries per edge.
func CSRAdjacencyBytes(n, m int) int64 {
	return 4 * (int64(n) + 1 + 2*int64(m))
}

// chooseAuto is the selection rule shared by Builder and Convert: the
// representation with fewer adjacency bytes, Dense on a tie.  Bytes
// alone decide because no hot path prefers Dense: the seed and the join
// both work inside one vertex's neighbourhood on local rows (Local).
func chooseAuto(n, m int) Representation {
	if CSRAdjacencyBytes(n, m) < DenseAdjacencyBytes(n) {
		return CSR
	}
	return Dense
}

// Density returns m / (n choose 2), the edge density reported for the
// paper's microarray graphs (e.g. 0.008%, 0.2%, 0.3%).
func Density(g Interface) float64 {
	n := g.N()
	if n < 2 {
		return 0
	}
	return float64(g.M()) / (float64(n) * float64(n-1) / 2)
}

// MaxDegree returns the largest vertex degree (0 for an empty graph).
func MaxDegree(g Interface) int {
	max := 0
	for v := 0; v < g.N(); v++ {
		if d := g.Degree(v); d > max {
			max = d
		}
	}
	return max
}

// ForEachEdge calls fn for every edge of g in canonical order (sorted by
// U, then V, U < V) until fn returns false.
func ForEachEdge(g Interface, fn func(u, v int) bool) {
	for u := 0; u < g.N(); u++ {
		stop := false
		g.Row(u).ForEach(func(v int) bool {
			if v > u {
				if !fn(u, v) {
					stop = true
					return false
				}
			}
			return true
		})
		if stop {
			return
		}
	}
}

// Edges returns all edges of g in canonical order — the non-repeating
// edge list the Kose-style algorithms take as input.
func Edges(g Interface) []Edge {
	edges := make([]Edge, 0, g.M())
	ForEachEdge(g, func(u, v int) bool {
		edges = append(edges, Edge{u, v})
		return true
	})
	return edges
}

// CommonNeighbors computes the common-neighbor bit string of the given
// clique into dst: bit i is 1 iff i is outside the clique and adjacent to
// every member (adjacency rows never include the vertex itself).  dst
// must be a bitset over [0, N()).  This is the paper's defining bitmap
// operation (Figure 2).
func CommonNeighbors(g Interface, dst *bitset.Bitset, clique []int) {
	if len(clique) == 0 {
		dst.SetAll()
		return
	}
	g.Materialize(clique[0], dst)
	for _, v := range clique[1:] {
		g.Row(v).IntersectInto(dst)
	}
}

// IsClique reports whether every pair of the given vertices is adjacent.
func IsClique(g Interface, vertices []int) bool {
	for i := 0; i < len(vertices); i++ {
		for j := i + 1; j < len(vertices); j++ {
			if !g.HasEdge(vertices[i], vertices[j]) {
				return false
			}
		}
	}
	return true
}

// IsMaximalClique reports whether the vertices form a clique with no
// common neighbor (the bit-string test of Figure 2).
func IsMaximalClique(g Interface, vertices []int) bool {
	if !IsClique(g, vertices) {
		return false
	}
	cn := bitset.New(g.N())
	CommonNeighbors(g, cn, vertices)
	return cn.None()
}

// KCorePeel iteratively removes vertices of degree < k and returns the
// surviving vertex set.  The k-clique enumerator uses this with k-1:
// vertices of degree < k-1 cannot belong to any k-clique (the paper's
// preprocessing step, applied to a fixed point rather than a single pass).
func KCorePeel(g Interface, k int) *bitset.Bitset {
	n := g.N()
	alive := bitset.New(n)
	alive.SetAll()
	deg := make([]int, n)
	queue := make([]int, 0, n)
	for v := 0; v < n; v++ {
		deg[v] = g.Degree(v)
		if deg[v] < k {
			queue = append(queue, v)
			alive.Clear(v)
		}
	}
	// One visitor for every peeled vertex: a closure per vertex would be
	// an allocation per vertex.
	drop := func(u int) bool {
		if alive.Test(u) {
			deg[u]--
			if deg[u] < k {
				alive.Clear(u)
				queue = append(queue, u)
			}
		}
		return true
	}
	for len(queue) > 0 {
		v := queue[len(queue)-1]
		queue = queue[:len(queue)-1]
		g.Row(v).ForEach(drop)
	}
	return alive
}

// nameSliceOf extracts the raw label slice of any representation (nil
// when no names were ever set).
func nameSliceOf(g Interface) []string {
	if nm, ok := g.(namer); ok {
		return nm.nameSlice()
	}
	return nil
}

// Densify returns g as a dense *Graph: g itself when already dense,
// otherwise a freshly materialized dense copy (names transplanted).
// Algorithms whose row algebra is inherently dense — the complement
// route of the FPT pipeline, the coloring bounds of the maximum-clique
// solver — use this at their entry points; the cost is the dense
// adjacency footprint, so genome-scale sparse graphs should prefer the
// enumeration paths, which never densify whole graphs.
func Densify(g Interface) *Graph {
	if d, ok := g.(*Graph); ok {
		return d
	}
	d := New(g.N())
	if names := nameSliceOf(g); names != nil {
		d.names = append([]string(nil), names...)
	}
	for v := 0; v < g.N(); v++ {
		g.Materialize(v, d.adj[v])
	}
	d.m = g.M()
	return d
}

// Convert returns g in the requested representation, re-encoding only
// when necessary (g itself is returned when it already matches).  Auto
// applies the rule of Builder.Freeze, the smaller adjacency, to g's
// measured n and m.
func Convert(g Interface, rep Representation) (Interface, error) {
	if !rep.Valid() {
		return nil, fmt.Errorf("graph: unknown representation %d", int(rep))
	}
	if rep == Auto {
		rep = chooseAuto(g.N(), g.M())
	}
	if g.Representation() == rep {
		return g, nil
	}
	if rep == Dense {
		return Densify(g), nil
	}
	b := NewBuilder(g.N()).WithRepresentation(rep)
	if names := nameSliceOf(g); names != nil {
		for v, name := range names {
			if name != "" {
				b.SetName(v, name)
			}
		}
	}
	ForEachEdge(g, func(u, v int) bool {
		b.AddEdge(u, v)
		return true
	})
	return b.Freeze()
}
