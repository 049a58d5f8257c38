package bitset

// Reader is the read-only row-access contract of the pluggable
// graph-representation layer: every adjacency backend (dense bitmap, CSR,
// WAH-compressed) hands its rows to the algorithms through this
// interface.  A dense *Bitset is its own Reader; sparse and compressed
// rows implement the same operations over their native encodings, so the
// bitmap algebra of the Clique Enumerator (AND, fused AND-any, popcount)
// runs without densifying a row unless the caller asks for it.
//
// The dense operand of the binary operations is always a *Bitset: the
// enumeration state (common-neighbor bitmaps, candidate sets) stays dense
// regardless of how the graph stores adjacency, which is what keeps the
// hot loops word-parallel.
type Reader interface {
	// ForEach calls fn for every set bit in increasing order; returning
	// false stops the iteration.
	ForEach(fn func(i int) bool)
	// IntersectsWith reports whether the row shares any bit with o — the
	// paper's fused BitAND + BitOneExists maximality probe.
	IntersectsWith(o *Bitset) bool
	// AndCount returns the size of the intersection with o.
	AndCount(o *Bitset) int
	// AndInto overwrites dst with row AND o.  dst must share the
	// universe and must not alias o.
	AndInto(dst, o *Bitset)
	// IntersectInto replaces dst with dst AND row, in place.
	IntersectInto(dst *Bitset)
}

// Compile-time check: a dense Bitset is its own Reader.
var _ Reader = (*Bitset)(nil)

// AndInto overwrites dst with b AND o (Reader form of And).
//
//repro:hotpath
func (b *Bitset) AndInto(dst, o *Bitset) { dst.And(b, o) }

// IntersectInto replaces dst with dst AND b, in place.
//
//repro:hotpath
func (b *Bitset) IntersectInto(dst *Bitset) { dst.And(dst, b) }
