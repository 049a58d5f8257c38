package graph

import (
	"fmt"

	"repro/internal/bitset"
	"repro/internal/wah"
)

// CompressedGraph stores one WAH-compressed bitmap per adjacency row —
// the paper's §5 future-work direction ("the sparsity of the bitmap
// memory index can potentially provide high compression rate and allow
// for bitwise operations to be performed on the compressed data"),
// promoted from common-neighbor storage to the graph substrate itself.
// Row probes and intersections walk the compressed stream; operations
// that genuinely need a dense row (AndInto/IntersectInto) decompress
// into pooled scratch, so repeated row access allocates nothing in
// steady state.
//
// A CompressedGraph is immutable: build one with Builder.Freeze or
// Convert.
type CompressedGraph struct {
	n     int
	m     int
	rows  []wahRow
	names []string
	pool  *bitset.Pool
	bytes int64
}

// newCompressed assembles a CompressedGraph from per-vertex sorted,
// deduplicated neighbor lists.  adj is consumed.
func newCompressed(n int, adj [][]uint32, names []string) *CompressedGraph {
	g := &CompressedGraph{
		n:     n,
		rows:  make([]wahRow, n),
		names: names,
		pool:  bitset.NewPool(n),
	}
	scratch := bitset.New(n)
	total := 0
	for v, row := range adj {
		total += len(row)
		scratch.ClearAll()
		for _, u := range row {
			scratch.Set(int(u))
		}
		bm := wah.Compress(scratch)
		g.rows[v] = wahRow{bm: bm, deg: len(row), g: g}
		g.bytes += int64(bm.CompressedBytes())
		adj[v] = nil
	}
	g.m = total / 2
	return g
}

// N returns the number of vertices.
func (g *CompressedGraph) N() int { return g.n }

// M returns the number of edges.
func (g *CompressedGraph) M() int { return g.m }

// Degree returns the number of neighbors of v.
func (g *CompressedGraph) Degree(v int) int { return g.rows[v].deg }

// HasEdge reports whether (u,v) is an edge, probing the compressed row.
//
//repro:hotpath
func (g *CompressedGraph) HasEdge(u, v int) bool {
	if u < 0 || u >= g.n {
		panicVertexRange(u, g.n)
	}
	if v < 0 || v >= g.n {
		panicVertexRange(v, g.n)
	}
	if u == v {
		return false
	}
	return g.rows[u].bm.Test(v)
}

// Name returns the label of v, or "v<index>" if none was set.
func (g *CompressedGraph) Name(v int) string {
	if g.names != nil && g.names[v] != "" {
		return g.names[v]
	}
	return fmt.Sprintf("v%d", v)
}

// Row returns the adjacency row of v as a read-only compressed view.
//
//repro:hotpath
func (g *CompressedGraph) Row(v int) bitset.Reader { return &g.rows[v] }

// Materialize overwrites dst with the neighbor set of v.
//
//repro:hotpath
func (g *CompressedGraph) Materialize(v int, dst *bitset.Bitset) {
	g.rows[v].bm.DecompressInto(dst)
}

// Bytes returns the measured adjacency footprint: the sum of the
// compressed row sizes.
func (g *CompressedGraph) Bytes() int64 { return g.bytes }

// Representation identifies the WAH backend.
func (g *CompressedGraph) Representation() Representation { return Compressed }

// nameSlice exposes the raw label slice for representation conversions.
func (g *CompressedGraph) nameSlice() []string { return g.names }

// wahRow is the bitset.Reader view of one compressed row.
type wahRow struct {
	bm  *wah.Bitmap
	deg int
	g   *CompressedGraph
}

var _ bitset.Reader = (*wahRow)(nil)

// ForEach visits the neighbors in increasing order on the compressed
// stream.
func (r *wahRow) ForEach(fn func(i int) bool) { r.bm.ForEach(fn) }

// IntersectsWith walks the compressed stream against the dense operand
// group-by-group, no decode and no per-bit closure.
//
//repro:hotpath
func (r *wahRow) IntersectsWith(o *bitset.Bitset) bool {
	return r.bm.AndAnyDense(o)
}

// AndCount returns |row ∩ o| by walking the compressed stream.
func (r *wahRow) AndCount(o *bitset.Bitset) int {
	c := 0
	r.bm.ForEach(func(i int) bool {
		if o.Test(i) {
			c++
		}
		return true
	})
	return c
}

// AndInto overwrites dst with row ∩ o, decompressing into dst.  dst must
// not alias o.
func (r *wahRow) AndInto(dst, o *bitset.Bitset) {
	r.bm.DecompressInto(dst)
	dst.And(dst, o)
}

// IntersectInto replaces dst with dst ∩ row in place, decompressing into
// pooled scratch.
func (r *wahRow) IntersectInto(dst *bitset.Bitset) {
	scratch := r.g.pool.GetNoClear()
	r.bm.DecompressInto(scratch)
	dst.And(dst, scratch)
	r.g.pool.Put(scratch)
}
