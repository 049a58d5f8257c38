package core

// Level storage arena: a chunked allocator with generation recycling for
// what a Builder's block sink retains — the chunks its blocks' words are
// written into, and the side slabs of the stored-bitmap modes.  The
// enumeration's level discipline — at most two levels resident, a
// consumed level dies at the next step boundary — makes lifetimes fully
// deterministic, so the storage never needs to reach the garbage
// collector at all:
//
//   - Every allocation made while generating level k+1 belongs to one
//     generation.  The produced level is read while level k+2 is
//     generated, and is dead before level k+3 starts.
//   - Every Builder driver (sequential Step, the streaming and barrier
//     worker pools, hybrid, simarch) calls Reset exactly once per level,
//     so Reset is the generation boundary: chunks that served the level
//     before last are provably dead and join the free list.
//
// Recycling changes the physical allocator, not the accounting: a sealed
// block's bytes are charged against the memory governor exactly once,
// when it is sealed, and released when its level is consumed — the
// arena's steady-state footprint is the recycled capacity behind those
// charges, never a second ledger entry.  Trip and cancel paths are safe
// by construction: a builder that stops mid-run never Resets again, so
// the frontier levels it leaves behind keep their storage.

// arena is one generation-recycled block allocator.  minLen seeds the
// doubling schedule (tiny graphs stay tiny); maxLen caps the steady-
// state block so a free block is never an outsized hostage.
type arena[T any] struct {
	minLen  int
	maxLen  int
	nextLen int   // doubling schedule for freshly made blocks
	active  []T   // unconsumed tail of the newest current-generation block
	cur     [][]T // blocks serving the level being generated
	prev    [][]T // blocks of the level now being consumed
	free    [][]T // blocks two generations old: dead, ready for reuse
}

// alloc returns storage for exactly n elements, capacity-clamped so a
// later append can never scribble over a neighbouring allocation.  The
// contents are unspecified; callers overwrite every element.
//
//repro:hotpath
func (a *arena[T]) alloc(n int) []T {
	if n > len(a.active) {
		a.refill(n)
	}
	s := a.active[:n:n]
	a.active = a.active[n:]
	return s
}

// chunk hands out a whole block with room for at least n elements; the
// caller allocates inside it by itself (the block sink writes records
// straight into it).
func (a *arena[T]) chunk(n int) []T {
	a.refill(n)
	c := a.active
	a.active = nil
	return c
}

// refill installs a block with room for n elements: a recycled one when
// the free list has a fit, a fresh make otherwise.  Out of line so
// alloc's fast path stays allocation-free under the hotalloc pin.
func (a *arena[T]) refill(n int) {
	for i := len(a.free) - 1; i >= 0; i-- {
		if blk := a.free[i]; cap(blk) >= n {
			a.free[i] = a.free[len(a.free)-1]
			a.free[len(a.free)-1] = nil
			a.free = a.free[:len(a.free)-1]
			a.cur = append(a.cur, blk[:cap(blk)])
			a.active = blk[:cap(blk)]
			return
		}
	}
	want := a.nextLen
	if want < a.minLen {
		want = a.minLen
	}
	if want > a.maxLen {
		want = a.maxLen
	}
	if want < n {
		want = n // oversized request: a dedicated block
	}
	a.nextLen = want * 2
	blk := make([]T, want)
	a.cur = append(a.cur, blk)
	a.active = blk
}

// flip advances one generation at a level boundary: the blocks that
// served the level before last are dead (their level has been consumed
// and retired) and join the free list; the current generation becomes
// the consumed one.
func (a *arena[T]) flip() {
	a.free = append(a.free, a.prev...)
	recycled := a.prev[:0]
	a.prev = a.cur
	a.cur = recycled
	a.active = nil
}

// blocks reports how many blocks the arena currently retains across all
// generations and the free list — observability for the recycling
// tests.
func (a *arena[T]) blocks() int {
	return len(a.cur) + len(a.prev) + len(a.free)
}
