// Package bitset implements the dense bit-string sets at the heart of the
// Clique Enumerator framework of Zhang et al. (SC 2005).
//
// The paper stores the common neighbors of a clique as a packed bit string
// of ceil(n/8) bytes over the n vertices of the input graph: bit i is 1 iff
// every vertex of the clique is adjacent to vertex i.  Candidate generation
// and the clique-maximality test then reduce to bitwise AND followed by a
// "does any 1-bit exist" probe, replacing loops over adjacency lists with
// word-wide logical operations.  This package provides exactly those
// primitives, plus the iteration and counting support needed elsewhere in
// the framework.
//
// All operations treat the set as having a fixed universe [0, Len()).
// Words beyond the last valid bit are kept zero as an invariant, so
// whole-word operations (Any, Count, Equal, ...) never need to mask.
package bitset

import (
	"fmt"
	"math/bits"
	"strings"
)

const (
	wordBits  = 64
	wordShift = 6
	wordMask  = wordBits - 1
)

// Bitset is a fixed-universe dense set of non-negative integers backed by
// 64-bit words.  The zero value is an empty set over an empty universe;
// use New to create a set over a universe of a given size.
type Bitset struct {
	words []uint64
	n     int // universe size in bits
}

// New returns an empty Bitset over the universe [0, n).
func New(n int) *Bitset {
	if n < 0 {
		panic("bitset: negative universe size")
	}
	return &Bitset{words: make([]uint64, wordsFor(n)), n: n}
}

// FromIndices returns a Bitset over [0, n) containing exactly the given
// indices.  Indices outside [0, n) cause a panic, as does a negative n.
func FromIndices(n int, indices ...int) *Bitset {
	b := New(n)
	for _, i := range indices {
		b.Set(i)
	}
	return b
}

func wordsFor(n int) int {
	return (n + wordBits - 1) / wordBits
}

// Len returns the universe size of the set, in bits.
func (b *Bitset) Len() int { return b.n }

// Words returns the number of 64-bit words backing the set.
func (b *Bitset) Words() int { return len(b.words) }

// Bytes returns the storage footprint of the bit data in bytes, which is
// the paper's ceil(n/8) term in the per-level memory accounting, rounded
// up to whole words as actually allocated.
func (b *Bitset) Bytes() int { return len(b.words) * 8 }

// Set adds i to the set.
func (b *Bitset) Set(i int) {
	b.check(i)
	b.words[i>>wordShift] |= 1 << uint(i&wordMask)
}

// Clear removes i from the set.
func (b *Bitset) Clear(i int) {
	b.check(i)
	b.words[i>>wordShift] &^= 1 << uint(i&wordMask)
}

// Test reports whether i is in the set.
//
//repro:hotpath
func (b *Bitset) Test(i int) bool {
	b.check(i)
	return b.words[i>>wordShift]&(1<<uint(i&wordMask)) != 0
}

func (b *Bitset) check(i int) {
	if i < 0 || i >= b.n {
		panic(fmt.Sprintf("bitset: index %d out of range [0,%d)", i, b.n))
	}
}

// Any reports whether the set contains at least one element.  This is the
// paper's BitOneExists operation: a non-empty common-neighbor bitmap means
// the clique is non-maximal.
//
//repro:hotpath
func (b *Bitset) Any() bool {
	for _, w := range b.words {
		if w != 0 {
			return true
		}
	}
	return false
}

// None reports whether the set is empty.
func (b *Bitset) None() bool { return !b.Any() }

// Count returns the number of elements in the set (population count).
// The plain range loop is deliberate: a 4-way accumulator unroll
// measured slower here — the extra slice bookkeeping costs more than the
// popcount dependence chain it breaks.  Re-measure any change against the
// benchmark's per-layer metrics bitset.count_ns and bitset.count_1m_ns
// (benchmark/README.md lists them; benchmark/PERF.md is the record).
//
//repro:hotpath
func (b *Bitset) Count() int {
	c := 0
	for _, w := range b.words {
		c += bits.OnesCount64(w)
	}
	return c
}

// SetAll adds every element of the universe to the set.
func (b *Bitset) SetAll() {
	for i := range b.words {
		b.words[i] = ^uint64(0)
	}
	b.trim()
}

// ClearAll removes every element from the set.
func (b *Bitset) ClearAll() {
	for i := range b.words {
		b.words[i] = 0
	}
}

// trim zeroes the bits of the final word beyond the universe, restoring
// the package invariant after whole-word operations that may set them.
func (b *Bitset) trim() {
	if rem := b.n & wordMask; rem != 0 && len(b.words) > 0 {
		b.words[len(b.words)-1] &= (1 << uint(rem)) - 1
	}
}

// Clone returns an independent copy of the set.
func (b *Bitset) Clone() *Bitset {
	c := &Bitset{words: make([]uint64, len(b.words)), n: b.n}
	copy(c.words, b.words)
	return c
}

// CopyFrom overwrites the receiver with the contents of src.  The two sets
// must share a universe size.
func (b *Bitset) CopyFrom(src *Bitset) {
	b.mustMatch(src)
	copy(b.words, src.words)
}

func (b *Bitset) mustMatch(o *Bitset) {
	if b.n != o.n {
		panic(fmt.Sprintf("bitset: universe mismatch %d vs %d", b.n, o.n))
	}
}

// And replaces the receiver with the intersection of x and y.  The receiver
// may alias either operand.  This is the workhorse of the Clique
// Enumerator: common neighbors of a (k+1)-clique are the AND of the common
// neighbors of a k-clique and the neighborhood of the new vertex.
//
//repro:hotpath
func (b *Bitset) And(x, y *Bitset) {
	x.mustMatch(y)
	b.mustMatch(x)
	bw, xw, yw := b.words, x.words, y.words
	for len(bw) >= 8 && len(xw) >= 8 && len(yw) >= 8 {
		bw[0] = xw[0] & yw[0]
		bw[1] = xw[1] & yw[1]
		bw[2] = xw[2] & yw[2]
		bw[3] = xw[3] & yw[3]
		bw[4] = xw[4] & yw[4]
		bw[5] = xw[5] & yw[5]
		bw[6] = xw[6] & yw[6]
		bw[7] = xw[7] & yw[7]
		bw, xw, yw = bw[8:], xw[8:], yw[8:]
	}
	for i := range bw {
		bw[i] = xw[i] & yw[i]
	}
}

// Or replaces the receiver with the union of x and y.  The receiver may
// alias either operand.
//
//repro:hotpath
func (b *Bitset) Or(x, y *Bitset) {
	x.mustMatch(y)
	b.mustMatch(x)
	for i := range b.words {
		b.words[i] = x.words[i] | y.words[i]
	}
}

// AndNot replaces the receiver with x minus y (set difference).  The
// receiver may alias either operand.
//
//repro:hotpath
func (b *Bitset) AndNot(x, y *Bitset) {
	x.mustMatch(y)
	b.mustMatch(x)
	for i := range b.words {
		b.words[i] = x.words[i] &^ y.words[i]
	}
}

// Xor replaces the receiver with the symmetric difference of x and y.  The
// receiver may alias either operand.
//
//repro:hotpath
func (b *Bitset) Xor(x, y *Bitset) {
	x.mustMatch(y)
	b.mustMatch(x)
	for i := range b.words {
		b.words[i] = x.words[i] ^ y.words[i]
	}
}

// Not replaces the receiver with the complement of x over the universe.
// The receiver may alias x.
//
//repro:hotpath
func (b *Bitset) Not(x *Bitset) {
	b.mustMatch(x)
	for i := range b.words {
		b.words[i] = ^x.words[i]
	}
	b.trim()
}

// IntersectsWith reports whether the receiver and o share any element,
// without materializing the intersection.  Equivalent to
// BitOneExists(BitAND(b, o)) in the paper's pseudocode, fused into one
// pass so the maximality test allocates nothing.
//
//repro:hotpath
func (b *Bitset) IntersectsWith(o *Bitset) bool {
	return AndAny(b, o)
}

// AndCount returns |b ∩ o| without materializing the intersection.
// Plain indexed loop on purpose: the two-slice 4-way unroll measured
// ~1.6x slower than this (double bounds checks and slice-header updates
// dominate).  Re-measure any change against the benchmark's per-layer
// metrics bitset.andcount_ns and bitset.andcount_1m_ns
// (benchmark/README.md lists them; benchmark/PERF.md is the record).
//
//repro:hotpath
func (b *Bitset) AndCount(o *Bitset) int {
	b.mustMatch(o)
	ow := o.words
	c := 0
	for i, w := range b.words {
		c += bits.OnesCount64(w & ow[i])
	}
	return c
}

// Equal reports whether the two sets contain exactly the same elements
// over the same universe.
//
//repro:hotpath
func (b *Bitset) Equal(o *Bitset) bool {
	if b.n != o.n {
		return false
	}
	for i, w := range b.words {
		if w != o.words[i] {
			return false
		}
	}
	return true
}

// NextSet returns the smallest element >= i in the set, and whether one
// exists.  Passing i >= Len() returns (0, false).
//
//repro:hotpath
func (b *Bitset) NextSet(i int) (int, bool) {
	if i < 0 {
		i = 0
	}
	if i >= b.n {
		return 0, false
	}
	wi := i >> wordShift
	w := b.words[wi] >> uint(i&wordMask)
	if w != 0 {
		return i + bits.TrailingZeros64(w), true
	}
	for wi++; wi < len(b.words); wi++ {
		if b.words[wi] != 0 {
			return wi<<wordShift + bits.TrailingZeros64(b.words[wi]), true
		}
	}
	return 0, false
}

// Min returns the smallest element of the set, and whether the set is
// non-empty.
func (b *Bitset) Min() (int, bool) { return b.NextSet(0) }

// Max returns the largest element of the set, and whether the set is
// non-empty.
func (b *Bitset) Max() (int, bool) {
	for wi := len(b.words) - 1; wi >= 0; wi-- {
		if w := b.words[wi]; w != 0 {
			return wi<<wordShift + wordBits - 1 - bits.LeadingZeros64(w), true
		}
	}
	return 0, false
}

// ForEach calls fn for every element of the set in increasing order.  If
// fn returns false, iteration stops early.
//
//repro:hotpath
func (b *Bitset) ForEach(fn func(i int) bool) {
	for wi, w := range b.words {
		base := wi << wordShift
		for w != 0 {
			t := bits.TrailingZeros64(w)
			if !fn(base + t) {
				return
			}
			w &= w - 1
		}
	}
}

// AppendIndices appends the elements of the set, in increasing order, to
// dst and returns the extended slice.  It is the allocation-conscious way
// to extract members into reusable scratch space.
func (b *Bitset) AppendIndices(dst []int) []int {
	b.ForEach(func(i int) bool {
		dst = append(dst, i)
		return true
	})
	return dst
}

// Indices returns the elements of the set in increasing order.
func (b *Bitset) Indices() []int {
	return b.AppendIndices(make([]int, 0, b.Count()))
}

// WordAt returns the w-th backing word.  It is exposed for the compressed
// bitmap encoder in package wah and for tests; most callers should use the
// logical operations instead.
func (b *Bitset) WordAt(w int) uint64 { return b.words[w] }

// SetWordAt overwrites the w-th backing word, re-establishing the trailing
// zero invariant on the final word.
func (b *Bitset) SetWordAt(w int, v uint64) {
	b.words[w] = v
	if w == len(b.words)-1 {
		b.trim()
	}
}

// String renders the set as {i, j, ...} for debugging.  Large sets are
// rendered in full; callers who only need a summary should use Count.
func (b *Bitset) String() string {
	var sb strings.Builder
	sb.WriteByte('{')
	first := true
	b.ForEach(func(i int) bool {
		if !first {
			sb.WriteString(", ")
		}
		first = false
		fmt.Fprintf(&sb, "%d", i)
		return true
	})
	sb.WriteByte('}')
	return sb.String()
}
