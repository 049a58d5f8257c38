package core

import (
	"fmt"

	"repro/internal/bitset"
	"repro/internal/graph"
)

// The local universe of a prefix run.  Every vertex a sub-list can reach
// lies in N(p0), p0 its prefix's first vertex: its tails, every clique
// that extends it and every common neighbour.  Sub-lists that share p0
// are contiguous in canonical order, so the join works on the induced
// subgraph G[N(p0)] (graph.Local), switched once per p0 group, and the
// canonical order, the stream and every count stay those of the global
// join.  Beside it the join keeps the prefix memo and two per-sub-list
// arrays.
//
// Everything here is builder scratch: ScratchBytes counts it, and the
// universe and grow charge what they add to the builder's governor.
type universe struct {
	*graph.Local

	// The prefix memo, in local words: memo[i*w:(i+1)*w] is the
	// common-neighbour row of memoPrefix[:i+1], so a sub-list that shares
	// its first l prefix vertices with the previous one reuses the rows
	// below l.  Row 0 is all of N(p0).
	memo       []uint64
	memoPrefix []uint32

	cv []uint64 // CN(prefix+v) of the tail being joined
	lt []uint32 // the sub-list's tails as local ids
}

// grow sizes the join's scratch for a group of degree d and a prefix
// memo of depth rows, charging what it adds to Gov.  Growth is rare and
// out of line, so the kernel's fast path stays allocation-free.
//
//nolint:budgetpair the universe is builder scratch: whoever adopted the builder releases it with ScratchBytes
func (b *Builder) grow(d, depth int) {
	u := &b.u
	before := b.ScratchBytes()
	u.lt, u.cv = graph.Fit(u.lt, d), graph.Fit(u.cv, u.W)
	u.memo, u.memoPrefix = graph.Fit(u.memo, depth*u.W), graph.Fit(u.memoPrefix, depth)
	b.Gov.Charge(b.ScratchBytes() - before)
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
	if int(p[0]) != u.V { // a new group: no row built, an empty memo
		u.Enter(int(p[0]), b.Gov)
		b.grow(len(u.Nbr), 0)
		u.memoPrefix = u.memoPrefix[:0]
	}
	w := u.W
	if cap(u.memo) < len(p)*w || cap(u.memoPrefix) < len(p) {
		b.grow(0, len(p))
	}
	valid := min(l, len(u.memoPrefix))
	u.memoPrefix = u.memoPrefix[:0] // until the whole prefix is in
	memo := u.memo[:len(p)*w]
	for x := range memo[:w] {
		memo[x] = ^uint64(0) // row 0: all of N(p0)
	}
	for i := max(valid, 1); i < len(p); i++ {
		lv := u.ID(p[i])
		if lv < 0 {
			return nil, false
		}
		row, prev, nv := memo[i*w:(i+1)*w], memo[(i-1)*w:i*w], u.Rows[int(u.Slot[lv])*w:][:w]
		for x := range row {
			row[x] = prev[x] & nv[x]
		}
	}
	u.memoPrefix = u.memoPrefix[:len(p)]
	copy(u.memoPrefix, p)
	if len(s.Tails) > len(u.Nbr) {
		return nil, false // more tails than N(p0) has distinct members
	}
	// u.lt holds deg(p0) entries since the group began, and building a
	// row never moves it.
	u.lt = u.lt[:len(s.Tails)]
	for k, t := range s.Tails {
		lv := u.ID(t)
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
	b.u.Scatter(cn, b.u.cv[:b.u.W])
	return cn
}
