// Package wah implements Word-Aligned Hybrid (WAH) compressed bitmaps.
//
// The conclusions of Zhang et al. (SC 2005) observe that the sparsity of
// the bitmap memory index "can potentially provide high compression rate
// and allow for bitwise operations to be performed on the compressed
// data", and state that work in that direction is underway.  This package
// is that extension: a 64-bit WAH codec whose AND operates directly on the
// compressed form, so common-neighbor bitmaps of sparse genome-scale
// graphs can be stored and intersected without decompression.
//
// Encoding: the logical bit string is split into 63-bit groups.  Each
// group is stored either as a literal word (MSB = 0, low 63 bits payload)
// or folded into a fill word (MSB = 1; bit 62 = fill bit value; low 62
// bits = run length in groups).  This is the classic WAH layout of Wu,
// Otoo and Shoshani, adapted to 64-bit words.
package wah

import (
	"fmt"
	"math/bits"

	"repro/internal/bitset"
)

const (
	groupBits = 63 // payload bits per word
	flagBit   = uint64(1) << 63
	fillBit   = uint64(1) << 62
	countMask = fillBit - 1 // low 62 bits: run length in groups
	litMask   = flagBit - 1 // low 63 bits: literal payload
)

// Bitmap is an immutable WAH-compressed bitmap over a fixed universe.
// Build one with Compress or a Builder.
type Bitmap struct {
	words []uint64
	n     int // universe size in bits
}

// Len returns the universe size in bits.
func (b *Bitmap) Len() int { return b.n }

// CompressedBytes returns the physical storage footprint in bytes.
func (b *Bitmap) CompressedBytes() int { return len(b.words) * 8 }

// UncompressedBytes returns the size a dense bitset over the same
// universe would occupy, for compression-ratio reporting.
func (b *Bitmap) UncompressedBytes() int { return (b.n + 63) / 64 * 8 }

func groupsFor(n int) int { return (n + groupBits - 1) / groupBits }

// Builder accumulates 63-bit groups into WAH form.
type Builder struct {
	words []uint64
	n     int
}

// append adds one 63-bit group (payload in the low 63 bits).
func (bd *Builder) append(group uint64) {
	switch group {
	case 0:
		bd.appendFill(0, 1)
	case litMask:
		bd.appendFill(1, 1)
	default:
		bd.words = append(bd.words, group)
	}
	bd.n += groupBits
}

func (bd *Builder) appendFill(bit uint64, count uint64) {
	if count == 0 {
		return
	}
	if k := len(bd.words); k > 0 {
		last := bd.words[k-1]
		if last&flagBit != 0 && (last&fillBit != 0) == (bit != 0) {
			run := last & countMask
			if run+count <= countMask {
				bd.words[k-1] = flagBit | (bit * fillBit) | (run + count)
				return
			}
		}
	}
	bd.words = append(bd.words, flagBit|(bit*fillBit)|count)
}

// Compress converts a dense bitset into WAH form.
func Compress(src *bitset.Bitset) *Bitmap {
	n := src.Len()
	bd := &Builder{}
	g := groupsFor(n)
	for gi := 0; gi < g; gi++ {
		bd.append(extractGroup(src, gi))
	}
	return &Bitmap{words: bd.words, n: n}
}

// extractGroup pulls the gi-th 63-bit group out of a dense bitset.
func extractGroup(src *bitset.Bitset, gi int) uint64 {
	startBit := gi * groupBits
	w := startBit >> 6
	off := uint(startBit & 63)
	var v uint64
	v = src.WordAt(w) >> off
	if off != 0 && w+1 < src.Words() {
		v |= src.WordAt(w+1) << (64 - off)
	}
	return v & litMask
}

// Decompress expands the bitmap into a fresh dense bitset.
func (b *Bitmap) Decompress() *bitset.Bitset {
	out := bitset.New(b.n)
	b.decompressInto(out)
	return out
}

// DecompressInto expands the bitmap into dst, which must share the
// universe size; dst is overwritten.  It exists so hot loops (the
// compressed-bitmap enumeration mode) can reuse scratch storage.
func (b *Bitmap) DecompressInto(dst *bitset.Bitset) {
	if dst.Len() != b.n {
		panic(fmt.Sprintf("wah: DecompressInto universe %d, want %d", dst.Len(), b.n))
	}
	dst.ClearAll()
	b.decompressInto(dst)
}

func (b *Bitmap) decompressInto(out *bitset.Bitset) {
	gi := 0
	for _, w := range b.words {
		if w&flagBit != 0 {
			run := int(w & countMask)
			if w&fillBit != 0 {
				for r := 0; r < run; r++ {
					writeGroup(out, gi+r, litMask)
				}
			}
			gi += run
			continue
		}
		writeGroup(out, gi, w&litMask)
		gi++
	}
}

// writeGroup ORs a 63-bit group into a dense bitset at group index gi,
// clipping to the universe.
func writeGroup(dst *bitset.Bitset, gi int, group uint64) {
	if group == 0 {
		return
	}
	base := gi * groupBits
	for g := group; g != 0; g &= g - 1 {
		i := base + bits.TrailingZeros64(g)
		if i >= dst.Len() {
			break
		}
		dst.Set(i)
	}
}

// Test reports whether bit i is set, walking the compressed form.  It is
// O(compressed words); row-access paths that probe many bits of one
// bitmap should DecompressInto scratch instead.
func (b *Bitmap) Test(i int) bool {
	if i < 0 || i >= b.n {
		panic(fmt.Sprintf("wah: index %d out of range [0,%d)", i, b.n))
	}
	target := i / groupBits
	off := uint(i % groupBits)
	gi := 0
	for _, w := range b.words {
		if w&flagBit != 0 {
			run := int(w & countMask)
			if target < gi+run {
				return w&fillBit != 0
			}
			gi += run
			continue
		}
		if gi == target {
			return w&(1<<off) != 0
		}
		gi++
	}
	return false
}

// ForEach calls fn for every set bit in increasing order, walking the
// compressed form; returning false stops the iteration.  Indices beyond
// the universe (padding bits of the final group) are never produced.
func (b *Bitmap) ForEach(fn func(i int) bool) {
	gi := 0
	for _, w := range b.words {
		if w&flagBit != 0 {
			run := int(w & countMask)
			if w&fillBit != 0 {
				for r := 0; r < run; r++ {
					base := (gi + r) * groupBits
					for off := 0; off < groupBits; off++ {
						i := base + off
						if i >= b.n {
							return
						}
						if !fn(i) {
							return
						}
					}
				}
			}
			gi += run
			continue
		}
		base := gi * groupBits
		for g := w & litMask; g != 0; g &= g - 1 {
			i := base + bits.TrailingZeros64(g)
			if i >= b.n {
				return
			}
			if !fn(i) {
				return
			}
		}
		gi++
	}
}

// Count returns the number of set bits, computed on the compressed form.
func (b *Bitmap) Count() int {
	c := 0
	gi := 0
	lastGroup := groupsFor(b.n) - 1
	tailBits := b.n - lastGroup*groupBits
	for _, w := range b.words {
		if w&flagBit != 0 {
			run := int(w & countMask)
			if w&fillBit != 0 {
				// Full groups of 63 ones; the final group of the universe
				// may be partial.
				for r := 0; r < run; r++ {
					if gi+r == lastGroup {
						c += tailBits
					} else {
						c += groupBits
					}
				}
			}
			gi += run
			continue
		}
		c += bits.OnesCount64(w & litMask)
		gi++
	}
	return c
}

// Any reports whether any bit is set, computed on the compressed form.
func (b *Bitmap) Any() bool {
	for _, w := range b.words {
		if w&flagBit != 0 {
			if w&fillBit != 0 && w&countMask > 0 {
				return true
			}
			continue
		}
		if w&litMask != 0 {
			return true
		}
	}
	return false
}

// AndAnyDense reports whether b ∩ o is non-empty, walking the compressed
// stream directly against the dense operand: fill-0 runs are skipped
// outright, fill-1 runs reduce to a ranged any-probe of o, and literal
// groups AND against the matching 63-bit window of o.  No decode buffer
// is touched.
//
//repro:hotpath
func (b *Bitmap) AndAnyDense(o *bitset.Bitset) bool {
	if o.Len() != b.n {
		panicOperandUniverse(o.Len(), b.n)
	}
	gi := 0
	for _, w := range b.words {
		if w&flagBit != 0 {
			run := int(w & countMask)
			if w&fillBit != 0 && bitset.RangeAndAny(o, o, gi*groupBits, (gi+run)*groupBits) {
				return true
			}
			gi += run
			continue
		}
		if w&litMask&extractGroup(o, gi) != 0 {
			return true
		}
		gi++
	}
	return false
}

// decoder walks a WAH word stream group-by-group without materializing.
type decoder struct {
	words []uint64
	pos   int    // index into words
	run   uint64 // groups remaining in current fill
	fill  uint64 // current fill payload (0 or litMask)
}

// next returns the next 63-bit group.  Callers must not read past the end.
func (d *decoder) next() uint64 {
	if d.run > 0 {
		d.run--
		return d.fill
	}
	w := d.words[d.pos]
	d.pos++
	if w&flagBit != 0 {
		d.run = w & countMask
		if w&fillBit != 0 {
			d.fill = litMask
		} else {
			d.fill = 0
		}
		d.run--
		return d.fill
	}
	return w & litMask
}

// panicOperandUniverse reports a dense operand whose universe does not
// match the bitmap's.  It lives out of line so the fused probes carry no
// fmt boxing on their hotalloc-pinned paths.
func panicOperandUniverse(got, want int) {
	panic(fmt.Sprintf("wah: operand universe %d, want %d", got, want))
}

// And intersects two compressed bitmaps directly in compressed space and
// returns the compressed result.  The operands must share a universe.
func And(x, y *Bitmap) *Bitmap {
	if x.n != y.n {
		panic(fmt.Sprintf("wah: universe mismatch %d vs %d", x.n, y.n))
	}
	dx := decoder{words: x.words}
	dy := decoder{words: y.words}
	bd := &Builder{}
	g := groupsFor(x.n)
	for gi := 0; gi < g; gi++ {
		// Fast path: both sides inside a fill run.
		if dx.run > 0 && dy.run > 0 {
			run := dx.run
			if dy.run < run {
				run = dy.run
			}
			remaining := uint64(g - gi)
			if run > remaining {
				run = remaining
			}
			var fill uint64
			if dx.fill&dy.fill != 0 {
				fill = 1
			}
			bd.appendFill(fill, run)
			bd.n += int(run-1) * groupBits
			dx.run -= run
			dy.run -= run
			gi += int(run) - 1
			continue
		}
		bd.append(dx.next() & dy.next())
	}
	return &Bitmap{words: bd.words, n: x.n}
}

// AndAny reports whether the intersection of x and y is non-empty without
// building the result: the paper's fused maximality probe, on compressed
// data.
func AndAny(x, y *Bitmap) bool {
	if x.n != y.n {
		panic(fmt.Sprintf("wah: universe mismatch %d vs %d", x.n, y.n))
	}
	dx := decoder{words: x.words}
	dy := decoder{words: y.words}
	g := groupsFor(x.n)
	for gi := 0; gi < g; gi++ {
		if dx.run > 0 && dy.run > 0 {
			if dx.fill&dy.fill != 0 {
				return true
			}
			run := dx.run
			if dy.run < run {
				run = dy.run
			}
			remaining := uint64(g - gi)
			if run > remaining {
				run = remaining
			}
			dx.run -= run
			dy.run -= run
			gi += int(run) - 1
			continue
		}
		if dx.next()&dy.next() != 0 {
			return true
		}
	}
	return false
}
