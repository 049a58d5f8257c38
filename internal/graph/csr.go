package graph

import (
	"fmt"

	"repro/internal/bitset"
)

// CSRGraph is the compressed-sparse-row adjacency backend: one sorted
// uint32 column array plus a row-pointer array, 4(n+1+2m) bytes total.
// This is the O(n+m) representation that makes genome-scale sparse
// coexpression graphs loadable at all — a 200k-vertex graph of average
// degree 32 costs ~26 MB here against ~5 GB dense.  Rows are exposed as
// bitset.Reader views over the sorted slices (adjacency tests are binary
// searches, intersections walk the neighbor list), and Materialize
// produces a dense row on demand for callers that need bitmap algebra
// over a private copy.
//
// A CSRGraph is immutable: build one with Builder.Freeze or Convert.
type CSRGraph struct {
	n      int
	m      int
	rowPtr []uint32 // len n+1
	cols   []uint32 // len 2m, sorted within each row
	rows   []csrRow // pre-built zero-allocation Reader views
	names  []string
}

// newCSR assembles a CSRGraph from per-vertex sorted, deduplicated
// neighbor lists.  adj is consumed.
// panicVertexRange reports an out-of-range vertex index.  It lives out
// of line so the bounds checks in the hot accessors carry no fmt
// boxing and the accessors stay within the inlining budget; the message
// matches the dense backend's check, so a caller bug fails identically
// on every representation.
func panicVertexRange(v, n int) {
	panic(fmt.Sprintf("graph: vertex %d out of range [0,%d)", v, n))
}

func newCSR(n int, adj [][]uint32, names []string) (*CSRGraph, error) {
	total := 0
	for _, row := range adj {
		total += len(row)
	}
	if int64(total) > int64(^uint32(0)) {
		return nil, fmt.Errorf("graph: CSR column index overflow: %d directed edges", total)
	}
	g := &CSRGraph{
		n:      n,
		m:      total / 2,
		rowPtr: make([]uint32, n+1),
		cols:   make([]uint32, 0, total),
		names:  names,
	}
	for v, row := range adj {
		g.rowPtr[v] = uint32(len(g.cols))
		g.cols = append(g.cols, row...)
		adj[v] = nil // release the builder's backing storage as we go
	}
	g.rowPtr[n] = uint32(len(g.cols))
	g.rows = make([]csrRow, n)
	for v := 0; v < n; v++ {
		g.rows[v] = csrRow{cols: g.cols[g.rowPtr[v]:g.rowPtr[v+1]], n: n}
	}
	return g, nil
}

// N returns the number of vertices.
func (g *CSRGraph) N() int { return g.n }

// M returns the number of edges.
func (g *CSRGraph) M() int { return g.m }

// Degree returns the number of neighbors of v.
func (g *CSRGraph) Degree(v int) int { return int(g.rowPtr[v+1] - g.rowPtr[v]) }

// HasEdge reports whether (u,v) is an edge: a binary search of the
// smaller endpoint's row.
//
//repro:hotpath
func (g *CSRGraph) HasEdge(u, v int) bool {
	if u < 0 || u >= g.n {
		panicVertexRange(u, g.n)
	}
	if v < 0 || v >= g.n {
		panicVertexRange(v, g.n)
	}
	if u == v {
		return false
	}
	if g.Degree(v) < g.Degree(u) {
		u, v = v, u
	}
	return g.rows[u].Test(v)
}

// Name returns the label of v, or "v<index>" if none was set.
func (g *CSRGraph) Name(v int) string {
	if g.names != nil && g.names[v] != "" {
		return g.names[v]
	}
	return fmt.Sprintf("v%d", v)
}

// Row returns the adjacency row of v as a read-only sorted-list view.
func (g *CSRGraph) Row(v int) bitset.Reader { return &g.rows[v] }

// Materialize overwrites dst with the neighbor set of v.
//
//repro:hotpath
func (g *CSRGraph) Materialize(v int, dst *bitset.Bitset) {
	dst.ClearAll()
	for _, u := range g.rows[v].cols {
		dst.Set(int(u))
	}
}

// Bytes returns the measured adjacency footprint: the row-pointer and
// column arrays.
func (g *CSRGraph) Bytes() int64 {
	return 4 * (int64(len(g.rowPtr)) + int64(len(g.cols)))
}

// Representation identifies the CSR backend.
func (g *CSRGraph) Representation() Representation { return CSR }

// nameSlice exposes the raw label slice for representation conversions.
func (g *CSRGraph) nameSlice() []string { return g.names }

// csrRow is the bitset.Reader view of one sorted neighbor list.
type csrRow struct {
	cols []uint32
	n    int
}

var _ bitset.Reader = (*csrRow)(nil)

// Test reports membership via binary search: O(log degree) — HasEdge's
// probe.  Out-of-range indices panic with the same diagnostic as the
// dense rows, so a caller bug fails identically on every backend.
//
//repro:hotpath
func (r *csrRow) Test(i int) bool {
	if i < 0 || i >= r.n {
		panicVertexRange(i, r.n)
	}
	// Hand-rolled binary search: sort.Search would cost a closure and an
	// indirect call per probe on this hot path.
	lo, hi := 0, len(r.cols)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if int(r.cols[mid]) < i {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo < len(r.cols) && int(r.cols[lo]) == i
}

// ForEach visits the neighbors in increasing order.
//
//repro:hotpath
func (r *csrRow) ForEach(fn func(i int) bool) {
	for _, u := range r.cols {
		if !fn(int(u)) {
			return
		}
	}
}

// mustMatchUniverse panics unless the dense operand spans the row's
// universe; the hot probes below index operand words directly off the
// neighbor list, so the single up-front check replaces a per-neighbor
// range test.
func (r *csrRow) mustMatchUniverse(o *bitset.Bitset) {
	if o.Len() != r.n {
		panic(fmt.Sprintf("graph: operand universe %d, want %d", o.Len(), r.n))
	}
}

// IntersectsWith probes the dense operand per neighbor: O(degree), which
// on sparse graphs beats the dense word scan.  The probe indexes the
// operand's backing word directly — the sorted neighbor list guarantees
// in-range indices once the universes match.
//
//repro:hotpath
func (r *csrRow) IntersectsWith(o *bitset.Bitset) bool {
	r.mustMatchUniverse(o)
	for _, u := range r.cols {
		if o.WordAt(int(u)>>6)&(1<<(u&63)) != 0 {
			return true
		}
	}
	return false
}

// AndCount returns |row ∩ o| in O(degree).
//
//repro:hotpath
func (r *csrRow) AndCount(o *bitset.Bitset) int {
	r.mustMatchUniverse(o)
	c := 0
	for _, u := range r.cols {
		c += int(o.WordAt(int(u)>>6) >> (u & 63) & 1)
	}
	return c
}

// AndInto overwrites dst with row ∩ o: one clearing pass plus O(degree)
// probes.  dst must not alias o.
//
//repro:hotpath
func (r *csrRow) AndInto(dst, o *bitset.Bitset) {
	dst.ClearAll()
	for _, u := range r.cols {
		if o.Test(int(u)) {
			dst.Set(int(u))
		}
	}
}

// IntersectInto replaces dst with dst ∩ row in place: a two-pointer walk
// of dst's set bits against the sorted neighbor list, clearing members of
// dst absent from the row.
//
//repro:hotpath
func (r *csrRow) IntersectInto(dst *bitset.Bitset) {
	k := 0
	for v, ok := dst.NextSet(0); ok; v, ok = dst.NextSet(v + 1) {
		for k < len(r.cols) && int(r.cols[k]) < v {
			k++
		}
		if k >= len(r.cols) || int(r.cols[k]) != v {
			dst.Clear(v)
		}
	}
}
