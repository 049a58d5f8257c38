// Package core implements the paper's primary contribution: the Clique
// Enumerator (Zhang et al., SC 2005, Section 2.3).  It enumerates all
// maximal cliques of an undirected graph in non-decreasing order of size,
// optionally restricted to a size range, using the sub-list + bitmap
// representation that makes the algorithm both memory-frugal and
// trivially parallel:
//
//   - Candidate k-cliques sharing a (k-1)-clique prefix form a *sub-list*:
//     the prefix is stored once, together with the common-neighbor bitmap
//     of the prefix and the array of tail vertices (each tail extends the
//     prefix to one k-clique; tails are in canonical order and exceed the
//     prefix's last vertex).
//   - (k+1)-cliques are generated by joining tail pairs within a single
//     sub-list; no cross-sub-list interaction ever occurs, which is the
//     independence the multithreaded implementation exploits.
//   - A freshly generated clique is maximal iff its common-neighbor
//     bitmap — one AND against the new tail's adjacency row — has no bit
//     set (BitOneExists).  Maximal cliques are reported immediately;
//     non-maximal ones become next-level candidates only if their
//     sub-list retains more than one clique.
//   - A sub-list is deleted as soon as its successors are generated, so
//     at most two levels are ever resident — the paper's "keeps only the
//     candidate k-cliques" memory discipline.
package core

import (
	"repro/internal/bitset"
	"repro/internal/enumcfg"
	"repro/internal/graph"
	"repro/internal/wah"
)

// Vertex indices are stored as uint32 inside sub-lists: the paper's
// memory-accounting formula charges c bytes per vertex index, and c = 4
// halves candidate storage relative to Go's native int.
const vertexBytes = 4

// pointerBytes is the per-sub-list pointer overhead in the paper's
// space formula ("N[k]*sizeof(pointers) more bytes").
const pointerBytes = 8

// SubList is one candidate k-clique sub-list.
type SubList struct {
	// Prefix is the shared (k-1)-clique, strictly increasing.
	Prefix []uint32
	// CN is the common-neighbor bitmap of Prefix over the graph's vertex
	// universe, held only by sub-lists created in CNStore mode (the
	// paper's "faster but keeps the common neighbors" choice).  In the
	// default CNRecompute mode it is nil and Builder.prefixCN rebuilds it;
	// in compressed mode CNC holds it.  A level may mix the three.
	CN *bitset.Bitset
	// CNC is the WAH-compressed form of the prefix common-neighbor
	// bitmap, used in CNCompress mode — the paper's "bitwise operations
	// ... performed on the compressed data" future-work direction.
	CNC *wah.Bitmap
	// Tails holds the k-th vertex of each clique in the sub-list,
	// strictly increasing, every element greater than the prefix's last
	// vertex.
	Tails []uint32
}

// K returns the size of the cliques the sub-list represents.
func (s *SubList) K() int { return len(s.Prefix) + 1 }

// Cliques returns the number of cliques in the sub-list.
func (s *SubList) Cliques() int { return len(s.Tails) }

// bytes returns the storage the paper's formula charges this sub-list:
// its tails (M-contribution), its prefix, its bitmap (dense or actual
// compressed size), and one pointer.
func (s *SubList) bytes(cnBytes int) int64 {
	b := int64(len(s.Tails))*vertexBytes +
		int64(len(s.Prefix))*vertexBytes + pointerBytes
	if s.CN != nil {
		b += int64(cnBytes)
	}
	if s.CNC != nil {
		b += int64(s.CNC.CompressedBytes())
	}
	return b
}

// MemBytes returns the storage the paper's formula charges this
// sub-list on a graph of n vertices — the per-sub-list unit the memory
// governor accounts in (Level.Bytes is the sum over a level).
func (s *SubList) MemBytes(n int) int64 {
	return s.bytes((n + 63) / 64 * 8)
}

// Level is the complete set of candidate k-clique sub-lists at one step
// of the enumeration.
type Level struct {
	K   int // size of the cliques held
	Sub []*SubList
}

// Cliques returns M[k]: the total number of candidate cliques held.
func (l *Level) Cliques() int64 {
	var m int64
	for _, s := range l.Sub {
		m += int64(len(s.Tails))
	}
	return m
}

// Bytes returns the paper's space formula for this level:
// M[k]*c + N[k]*((k-1)*c + ceil(n/8) + sizeof(pointer)).
func (l *Level) Bytes(n int) int64 {
	cnBytes := (n + 63) / 64 * 8 // bitmaps are allocated in whole words
	var b int64
	for _, s := range l.Sub {
		b += s.bytes(cnBytes)
	}
	return b
}

// CNMode selects how sub-lists keep their prefix common-neighbor
// bitmaps.  The paper's trade-off discussion covers the first two modes
// explicitly; the third is its stated future-work direction.  The
// canonical definition lives in package enumcfg, shared by every backend
// and the facade; these aliases preserve the historical core names.
type CNMode = enumcfg.CNMode

const (
	// CNRecompute (the zero value) keeps no bitmap: prefixCN rebuilds it,
	// memoised against the previous sub-list.
	CNRecompute = enumcfg.CNRecompute
	// CNStore keeps the dense bitmap per sub-list (the paper's choice).
	CNStore = enumcfg.CNStore
	// CNCompress keeps the bitmap WAH-compressed, decompressing on use.
	CNCompress = enumcfg.CNCompress
)

// wahRows is the optional fast path a representation may provide for the
// CNCompress mode: the WAH graph's rows are already compressed, so seed
// sub-lists can share them (wah.Bitmap is immutable) instead of paying a
// decompress/recompress round trip.
type wahRows interface {
	WAHRow(v int) *wah.Bitmap
}

// SeedFromEdgesMode builds the initial level of 2-clique sub-lists from
// the graph's edges: one sub-list per vertex a holding CN = N(a) (kept as
// mode says) and tails = neighbors of a greater than a.  Sub-lists with
// fewer than two tails are dropped (they cannot join pairs), which is the
// paper's N[2] <= n-2, M[2] = m initialization.
func SeedFromEdgesMode(g graph.Interface, mode CNMode) *Level {
	return &Level{K: 2, Sub: seedEdgeRange(g, mode, 0, g.N())}
}

// seedEdgeRange builds the 2-clique sub-lists whose anchor vertex lies in
// [from, to).  Anchor ranges partition the seed level, and concatenating
// range outputs in range order reproduces SeedFromEdgesMode exactly —
// the property the parallel seeder relies on.
func seedEdgeRange(g graph.Interface, mode CNMode, from, to int) []*SubList {
	// Dense fast path: the concrete ForEach inlines and its visitor stays
	// on the stack, keeping the seed phase allocation-identical to the
	// historical implementation.
	if dense, ok := g.(*graph.Graph); ok {
		var subs []*SubList
		for a := from; a < to; a++ {
			na := dense.Neighbors(a)
			var tails []uint32
			na.ForEach(func(v int) bool {
				if v > a {
					tails = append(tails, uint32(v))
				}
				return true
			})
			if len(tails) < 2 {
				continue
			}
			s := &SubList{Prefix: []uint32{uint32(a)}, Tails: tails}
			switch mode {
			case CNStore:
				s.CN = na.Clone()
			case CNCompress:
				s.CNC = wah.Compress(na)
			}
			subs = append(subs, s)
		}
		return subs
	}
	wr, _ := g.(wahRows)
	var scratch *bitset.Bitset
	var subs []*SubList
	for a := from; a < to; a++ {
		anchor := a
		var tails []uint32
		g.Row(a).ForEach(func(v int) bool {
			if v > anchor {
				tails = append(tails, uint32(v))
			}
			return true
		})
		if len(tails) < 2 {
			continue
		}
		s := &SubList{Prefix: []uint32{uint32(a)}, Tails: tails}
		switch mode {
		case CNStore:
			cn := bitset.New(g.N())
			g.Materialize(a, cn)
			s.CN = cn
		case CNCompress:
			if wr != nil {
				s.CNC = wr.WAHRow(a)
			} else {
				if scratch == nil {
					scratch = bitset.New(g.N())
				}
				g.Materialize(a, scratch)
				s.CNC = wah.Compress(scratch)
			}
		}
		subs = append(subs, s)
	}
	return subs
}
