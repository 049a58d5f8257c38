package core

import (
	"fmt"
	"math/bits"

	"repro/internal/bitset"
	"repro/internal/graph"
)

// The local universe of a prefix run.  Every vertex a sub-list can reach
// lies in N(p0), p0 its prefix's first vertex: its tails, every clique
// that extends it and every common neighbour.  Sub-lists that share p0
// are contiguous in canonical order, so the join works on the induced
// subgraph G[N(p0)], switched once per p0 group: a vertex of N(p0) is its
// rank in the sorted N(p0), a row is ⌈deg(p0)/64⌉ words instead of
// ⌈n/64⌉, and on the paper's graphs one word.  The map is monotone, so
// the canonical order, the stream and every count stay those of the
// global join (Eppstein, Löffler & Strash's per-vertex subproblems, with
// the paper's order and algorithm).
//
// Everything here is builder scratch: ScratchBytes counts it, and grow
// charges what it adds to the builder's governor.  A row is built only
// for a vertex the group touches — a prefix vertex or a tail, each after
// p0 in canonical order — so the rows take ⌈deg(p0)/64⌉ words for each
// of at most |N(p0)| touched vertices: below deg(p0)²/8 bytes, and far
// below it for a hub late in the order, whose group touches few of its
// neighbours.
type universe struct {
	g   graph.Interface
	p0  int      // the group's first prefix vertex; -1 before the first group
	nbr []uint32 // N(p0), sorted: local -> global
	w   int      // words of a local row: ⌈|N(p0)|/64⌉

	// rank maps global -> local, one entry per vertex: l >= 0 for a
	// vertex of N(p0) whose row is built, -(l+2) for one whose row is not
	// yet, -1 outside N(p0) — one load tells the kernel all three.
	rank []int32

	// rows holds the rows of G[N(p0)] the group has touched, w words
	// each, in the order it touched them: the row of built local vertex
	// l is slot[l], rows[slot[l]*w:(slot[l]+1)*w]; the first built slots
	// are in use.
	rows  []uint64
	slot  []int32
	built int

	// The prefix memo, in local words: memo[i*w:(i+1)*w] is the
	// common-neighbour row of memoPrefix[:i+1], so a sub-list that shares
	// its first l prefix vertices with the previous one reuses the rows
	// below l.  Row 0 is all of N(p0).
	memo       []uint64
	memoPrefix []uint32

	cv   []uint64 // CN(prefix+v) of the tail being joined
	lt   []uint32 // the sub-list's tails as local ids
	fill []uint64 // the row mark writes into

	// The ForEach visitors, bound once: a method value made per row would
	// be an allocation per row.
	mark, admit func(int) bool
}

// bytes is the universe's resident footprint.
func (u *universe) bytes() int64 {
	return 4*int64(cap(u.rank)+cap(u.nbr)+cap(u.slot)+cap(u.lt)) +
		8*int64(cap(u.rows)+cap(u.memo)+cap(u.cv))
}

// enter makes p0's neighbourhood the universe, with no row built and an
// empty memo.  The previous group's ranks are cleared through its list,
// so a switch costs the two degrees, not n.
func (b *Builder) enter(p0 int) {
	u := &b.u
	for _, v := range u.nbr {
		u.rank[v] = -1
	}
	d := u.g.Degree(p0)
	u.w = (d + 63) / 64
	b.grow(d, 0, 0)
	u.p0, u.nbr, u.memoPrefix, u.built = p0, u.nbr[:0], u.memoPrefix[:0], 0
	u.g.Row(p0).ForEach(u.admit)
}

// admitVertex appends v to N(p0) and ranks it, its row not yet built.
//
//repro:hotpath
func (u *universe) admitVertex(v int) bool {
	u.rank[v] = -int32(len(u.nbr)) - 2
	u.nbr = append(u.nbr, uint32(v))
	return true
}

// markVertex sets v's bit in the row being built, if v lies in N(p0).
//
//repro:hotpath
func (u *universe) markVertex(v int) bool {
	if r := u.rank[v]; r != -1 {
		r = max(r, -r-2) // the local id, whether v's row is built or not
		u.fill[r>>6] |= 1 << (r & 63)
	}
	return true
}

// local maps v into the universe: its local id, or -1 outside N(p0).
// A vertex whose row is built costs one load.
//
//repro:hotpath
func (b *Builder) local(v uint32) int32 {
	if r := b.u.rank[v]; r >= -1 {
		return r
	}
	return b.build(v)
}

// build is local the first time the group touches v: it gives v's row
// the next slot and builds it there.
func (b *Builder) build(v uint32) int32 {
	u := &b.u
	l, s := -u.rank[v]-2, u.built
	if (s+1)*u.w > len(u.rows) {
		b.grow(0, 0, min(2*s+1, len(u.nbr))) // doubling: the copies stay linear in the rows
	}
	u.fill = u.rows[s*u.w : (s+1)*u.w]
	clear(u.fill)
	u.g.Row(int(v)).ForEach(u.mark)
	u.slot[l], u.rank[v], u.built = int32(s), l, s+1
	return l
}

// grow sizes the scratch for a group of degree d, a prefix memo of depth
// rows and nrows built rows, charging what it adds to Gov.  Growth is
// rare and out of line, so the kernel's fast path stays allocation-free.
//
//nolint:budgetpair the universe is builder scratch: whoever adopted the builder releases it with ScratchBytes
func (b *Builder) grow(d, depth, nrows int) {
	u := &b.u
	before := u.bytes()
	w := max(u.w, (d+63)/64)
	u.nbr, u.slot, u.lt, u.cv = fit(u.nbr, d), fit(u.slot, d), fit(u.lt, d), fit(u.cv, w)
	u.rows, u.memo, u.memoPrefix = fit(u.rows, nrows*w), fit(u.memo, depth*w), fit(u.memoPrefix, depth)
	b.Gov.Charge(u.bytes() - before)
}

// fit returns s with room for n elements, its contents kept: the memo's
// rows stay valid for the next prefix, and the built rows for the group.
func fit[T any](s []T, n int) []T {
	if cap(s) >= n {
		return s
	}
	grown := make([]T, n)
	copy(grown, s[:cap(s)])
	return grown
}

// admitPrefix maps s into its universe and returns the common-neighbour
// row of its prefix over N(p0), with the tails mapped into u.lt and their
// rows' slots into u.ls; ok is false when a prefix vertex or a tail lies
// outside N(p0), which only a record read from outside input can do, and
// then Cost is left as it was.  The prefix row comes from the memo,
// whose shared length is the record's lcp where its source knows one and
// a comparison with the memo otherwise: it depends only on the graph, so
// any processing order is correct.
//
// Cost.ANDWords charges the reconstruction of the whole prefix at the
// paper's ⌈n/64⌉ words a row, as the abstract machine does it, and only
// for a sub-list without a stored bitmap.
//
//repro:hotpath
func (b *Builder) admitPrefix(s *SubList) ([]uint64, bool) {
	u, p := &b.u, s.Prefix
	l := s.LCP
	if l == 0 {
		for l < len(p) && l < len(u.memoPrefix) && p[l] == u.memoPrefix[l] {
			l++
		}
	}
	if int(p[0]) != u.p0 {
		b.enter(int(p[0]))
	}
	w := u.w
	if cap(u.memo) < len(p)*w || cap(u.memoPrefix) < len(p) {
		b.grow(0, len(p), 0)
	}
	valid := min(l, len(u.memoPrefix))
	u.memoPrefix = u.memoPrefix[:0] // until the whole prefix is in
	memo := u.memo[:len(p)*w]
	for x := range memo[:w] {
		memo[x] = ^uint64(0) // row 0: all of N(p0)
	}
	for i := max(valid, 1); i < len(p); i++ {
		lv := b.local(p[i])
		if lv < 0 {
			return nil, false
		}
		row, prev, nv := memo[i*w:(i+1)*w], memo[(i-1)*w:i*w], u.rows[int(u.slot[lv])*w:][:w]
		for x := range row {
			row[x] = prev[x] & nv[x]
		}
	}
	u.memoPrefix = u.memoPrefix[:len(p)]
	copy(u.memoPrefix, p)
	if len(s.Tails) > len(u.nbr) {
		return nil, false // more tails than N(p0) has distinct members
	}
	// u.lt holds deg(p0) entries since enter, and building a row never
	// moves it.
	u.lt = u.lt[:len(s.Tails)]
	for k, t := range s.Tails {
		lv := b.local(t)
		if lv < 0 {
			return nil, false
		}
		u.lt[k] = uint32(lv)
	}
	if s.CN == nil && l < len(p) {
		b.Cost.ANDWords += int64(len(p)-max(l, 1)) * int64(b.words) // row 0 is a copy, not an AND
	}
	return memo[(len(p)-1)*w:], true
}

// outside is the error for a record that leaves its prefix's universe;
// out of line so the kernel boxes nothing.
func outside(s *SubList) error {
	return fmt.Errorf("core: record %v|%v reaches outside N(%d)", s.Prefix, s.Tails, s.Prefix[0])
}

// scatter writes CN(prefix+v), held in u.cv over N(p0), into a bitmap
// over the graph's universe: the stored bitmap CNStore keeps.
func (b *Builder) scatter() *bitset.Bitset {
	cn := b.pool.Get()
	for x, word := range b.u.cv[:b.u.w] {
		for ; word != 0; word &= word - 1 {
			cn.Set(int(b.u.nbr[x<<6+bits.TrailingZeros64(word)]))
		}
	}
	return cn
}
