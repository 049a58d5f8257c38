package bitset

// Fused intersect-and-test kernels.  The enumerator's maximality probe —
// BitOneExists(BitAND(...)) in the paper's pseudocode — does not need the
// intersection materialized: these kernels answer the existence question
// in one pass over the operands, early-exiting on the first nonzero
// word, and write nothing.  The word loops test four words per iteration
// (OR-combined so the branch is per-block, not per-word); the tail-word
// invariant ("words beyond the last valid bit stay zero") means no
// masking is ever needed.

// AndAny reports whether x ∩ y is non-empty without materializing the
// intersection.  Equivalent to x.IntersectsWith(y).
//
//repro:hotpath
func AndAny(x, y *Bitset) bool {
	x.mustMatch(y)
	xw, yw := x.words, y.words
	for len(xw) >= 4 && len(yw) >= 4 {
		if xw[0]&yw[0]|xw[1]&yw[1]|xw[2]&yw[2]|xw[3]&yw[3] != 0 {
			return true
		}
		xw, yw = xw[4:], yw[4:]
	}
	for i := range xw {
		if xw[i]&yw[i] != 0 {
			return true
		}
	}
	return false
}

// AndAny3 reports whether x ∩ y ∩ z is non-empty in a single fused pass.
// This is the join's maximality probe without the candidate-intersection
// materialize: where the enumerator would compute tmp = x AND y and then
// ask tmp.IntersectsWith(z), AndAny3 answers directly, touching each
// operand word at most once and exiting on the first witness block.
//
//repro:hotpath
func AndAny3(x, y, z *Bitset) bool {
	x.mustMatch(y)
	x.mustMatch(z)
	xw, yw, zw := x.words, y.words, z.words
	for len(xw) >= 4 && len(yw) >= 4 && len(zw) >= 4 {
		if xw[0]&yw[0]&zw[0]|xw[1]&yw[1]&zw[1]|xw[2]&yw[2]&zw[2]|xw[3]&yw[3]&zw[3] != 0 {
			return true
		}
		xw, yw, zw = xw[4:], yw[4:], zw[4:]
	}
	for i := range xw {
		if xw[i]&yw[i]&zw[i] != 0 {
			return true
		}
	}
	return false
}

// AndNotAny reports whether x \ y is non-empty (some element of x is not
// in y) without materializing the difference: the negated subset test.
//
//repro:hotpath
func AndNotAny(x, y *Bitset) bool {
	x.mustMatch(y)
	xw, yw := x.words, y.words
	for len(xw) >= 4 && len(yw) >= 4 {
		if xw[0]&^yw[0]|xw[1]&^yw[1]|xw[2]&^yw[2]|xw[3]&^yw[3] != 0 {
			return true
		}
		xw, yw = xw[4:], yw[4:]
	}
	for i := range xw {
		if xw[i]&^yw[i] != 0 {
			return true
		}
	}
	return false
}

// RangeAndAny reports whether x ∩ y contains any element in [start, end).
// Bounds are clipped to the universe.  It exists for the compressed row
// probe: a WAH fill-1 run covers a bit range, and the question "does the
// run meet x ∩ y" is exactly a ranged AndAny over the dense operands.
//
//repro:hotpath
func RangeAndAny(x, y *Bitset, start, end int) bool {
	x.mustMatch(y)
	if start < 0 {
		start = 0
	}
	if end > x.n {
		end = x.n
	}
	if start >= end {
		return false
	}
	sw, ew := start>>wordShift, (end-1)>>wordShift
	startMask := ^uint64(0) << uint(start&wordMask)
	endMask := ^uint64(0) >> uint(wordBits-1-(end-1)&wordMask)
	if sw == ew {
		return x.words[sw]&y.words[sw]&startMask&endMask != 0
	}
	if x.words[sw]&y.words[sw]&startMask != 0 {
		return true
	}
	for i := sw + 1; i < ew; i++ {
		if x.words[i]&y.words[i] != 0 {
			return true
		}
	}
	return x.words[ew]&y.words[ew]&endMask != 0
}
